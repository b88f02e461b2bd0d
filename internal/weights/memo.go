package weights

import (
	"sync"

	"relatrust/internal/relation"
)

// Memo memoizes a weighting for concurrent use. The weightings of this
// package keep unsynchronized scratch, so every look-up goes through one
// mutex, and a miss is priced under it. Weights are pure functions of the
// attribute set, so every caller sees the same value no matter which one
// priced it first. The session engine holds one Memo per weighting name
// for each dataset snapshot, shared by every search over it; a search's
// per-worker caches keep the mutex off its steady-state path.
type Memo struct {
	w     Func
	mu    sync.Mutex
	cache map[relation.AttrSet]float64
}

// NewMemo returns an empty memo over w.
func NewMemo(w Func) *Memo {
	return &Memo{w: w, cache: make(map[relation.AttrSet]float64)}
}

// Weight implements Func.
func (m *Memo) Weight(y relation.AttrSet) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.cache[y]
	if !ok {
		v = m.w.Weight(y)
		m.cache[y] = v
	}
	return v
}

// Name implements Func.
func (m *Memo) Name() string { return m.w.Name() }
