package repair

import (
	"errors"
	"fmt"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
)

// Sentinel errors of the repair entry points. The errors actually returned
// may be typed wrappers carrying detail (see SchemaMismatchError,
// BudgetError); errors.Is against these sentinels matches either form.
var (
	// ErrEmptyFDSet reports a repair request with no FDs to repair against.
	ErrEmptyFDSet = errors.New("repair: empty FD set")
	// ErrEmptyInstance reports a repair request over an instance with no
	// tuples.
	ErrEmptyInstance = errors.New("repair: empty instance")
	// ErrSchemaMismatch reports an FD referencing attributes outside the
	// instance's schema. Returned as a *SchemaMismatchError naming the FD.
	ErrSchemaMismatch = errors.New("repair: FD references attributes outside the schema")
	// ErrNoRepairInBudget reports that no FD relaxation fits the requested
	// cell-change budget — the paper's (φ, φ) answer. Returned as a
	// *BudgetError carrying τ.
	ErrNoRepairInBudget = errors.New("repair: no FD relaxation fits the cell-change budget")
	// ErrNotVertexCover reports a data repair whose cover is not a vertex
	// cover of Σ′'s conflict graph, so rewriting only its tuples cannot
	// remove every violation. The wrapping error says what gave it away: a
	// tuple with no valid assignment, or a violation the safety check
	// found after the rewrite.
	ErrNotVertexCover = errors.New("repair: the cover is not a vertex cover")
)

// SchemaMismatchError identifies the FD that refers outside the schema.
// It matches ErrSchemaMismatch under errors.Is.
type SchemaMismatchError struct {
	FD     fd.FD
	Schema *relation.Schema
}

func (e *SchemaMismatchError) Error() string {
	return fmt.Sprintf("repair: FD %s references attributes outside schema %s", e.FD, e.Schema)
}

// Is reports sentinel identity so errors.Is(err, ErrSchemaMismatch) holds.
func (e *SchemaMismatchError) Is(target error) bool { return target == ErrSchemaMismatch }

// BudgetError reports the τ for which no repair exists. It matches
// ErrNoRepairInBudget under errors.Is.
type BudgetError struct {
	Tau int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("repair: no FD relaxation fits τ=%d", e.Tau)
}

// Is reports sentinel identity so errors.Is(err, ErrNoRepairInBudget) holds.
func (e *BudgetError) Is(target error) bool { return target == ErrNoRepairInBudget }

// Validate checks an instance/FD-set pair for the structural preconditions
// every repair entry point shares, returning the structured error naming
// the first problem: ErrEmptyFDSet, ErrEmptyInstance, or a
// *SchemaMismatchError. It is the one validation path — NewSession and the
// facade's Repairer both call it, so a pair accepted here is accepted
// everywhere.
func Validate(in *relation.Instance, sigma fd.Set) error {
	if len(sigma) == 0 {
		return ErrEmptyFDSet
	}
	if in.N() == 0 {
		return ErrEmptyInstance
	}
	for _, f := range sigma {
		if f.RHS >= in.Schema.Width() || f.LHS.Max() >= in.Schema.Width() {
			return &SchemaMismatchError{FD: f, Schema: in.Schema}
		}
	}
	return nil
}
