package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"time"

	"relatrust/internal/report"
	"relatrust/internal/server"
	"relatrust/internal/store"
)

// daemon is one in-process relatrustd: server.New configured as
// `relatrustd -data-dir -jobs-dir` with default flags, served over
// loopback HTTP.
type daemon struct {
	srv   *server.Server
	hs    *http.Server
	base  string
	hc    *http.Client
	tr    *http.Transport
	serve chan error
}

func startDaemon(dir string) (*daemon, error) {
	st, err := store.Open(filepath.Join(dir, "data"), store.Options{})
	if err != nil {
		return nil, err
	}
	js, err := store.OpenJobs(filepath.Join(dir, "jobs"), store.Options{})
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Options{Store: st, JobStore: js})
	if _, err := srv.Rehydrate(); err != nil {
		return nil, err
	}
	if _, err := srv.RecoverJobs(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: 2 * clients, DisableCompression: true}
	d := &daemon{
		srv:   srv,
		hs:    &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second},
		base:  "http://" + ln.Addr().String(),
		hc:    &http.Client{Transport: tr},
		tr:    tr,
		serve: make(chan error, 1),
	}
	go func() { d.serve <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the daemon down the way relatrustd does on SIGTERM and waits
// for the serving goroutine to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.srv.BeginShutdown()
	err := d.hs.Shutdown(ctx)
	d.srv.Close()
	d.tr.CloseIdleConnections()
	if serr := <-d.serve; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// request sends one request and returns the response; a status other than
// want is an error carrying the body.
func (d *daemon) request(ctx context.Context, method, path string, body any, want int) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(msg))
	}
	return resp, nil
}

func (d *daemon) upload(ctx context.Context, ds datasetInput) error {
	resp, err := d.request(ctx, http.MethodPost, "/v1/datasets", map[string]string{"name": ds.name, "csv": ds.csv}, http.StatusCreated)
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err
}

// shed sums the sweeps_shed counter over every dataset in /metrics.
func (d *daemon) shed(ctx context.Context) (float64, error) {
	resp, err := d.request(ctx, http.MethodGet, "/metrics", nil, http.StatusOK)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	total := 0.0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "relatrust_sweeps_shed_total") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing /metrics line %q: %w", line, err)
		}
		total += v
	}
	return total, sc.Err()
}

// httpClient is one closed-loop analyst: it sends its next request only
// after the previous reply was read to the end, and checks every reply.
type httpClient struct {
	d   *daemon
	fds string
	// corrupt, when set, rewrites raw reply bytes before they are checked
	// (the self-test uses it to prove a wrong answer is counted).
	corrupt func(k opKind, reply []byte) []byte
	// pairLines holds the streamed frontier of the current seed, which
	// the job of the same seed must reproduce byte for byte.
	pairSeed  int64
	pairLines [][]byte
}

func (c *httpClient) reply(k opKind, b []byte) []byte {
	if c.corrupt != nil {
		return c.corrupt(k, b)
	}
	return b
}

// exec runs one operation and times it from the first byte sent to the
// last byte of the reply.
func (c *httpClient) exec(ctx context.Context, o op) sample {
	s := sample{kind: o.kind}
	start := time.Now()
	switch o.kind {
	case opBudget:
		s.err = c.budget(ctx, o)
	case opFrontier:
		s.first, s.err = c.frontier(ctx, o, start)
	case opJob:
		s.err = c.job(ctx, o)
	case opPatch:
		s.err = c.patch(ctx, o)
	case opDiscover:
		s.err = c.discover(ctx, o)
	}
	s.lat = time.Since(start)
	return s
}

func (c *httpClient) budget(ctx context.Context, o op) error {
	resp, err := c.d.request(ctx, http.MethodPost, "/v1/repair/budget",
		map[string]any{"dataset": o.dataset, "fds": c.fds, "tau": o.tau}, http.StatusOK)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	var got struct {
		Repair report.Row `json:"repair"`
	}
	if err := strictDecode(c.reply(o.kind, body), &got); err != nil {
		return fmt.Errorf("budget reply: %w", err)
	}
	return sameRow(got.Repair, o.want.row)
}

// readLines reads an NDJSON body to EOF, noting when the first line
// arrived.
func readLines(body io.Reader, start time.Time) (lines [][]byte, first time.Duration, err error) {
	br := bufio.NewReader(body)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if first == 0 {
				first = time.Since(start)
			}
			lines = append(lines, bytes.TrimSuffix(line, []byte("\n")))
		}
		if err == io.EOF {
			return lines, first, nil
		}
		if err != nil {
			return nil, 0, err
		}
	}
}

func (c *httpClient) frontier(ctx context.Context, o op, start time.Time) (time.Duration, error) {
	c.pairLines = nil
	resp, err := c.d.request(ctx, http.MethodPost, "/v1/repair",
		map[string]any{"dataset": o.dataset, "fds": c.fds, "seed": o.seed}, http.StatusOK)
	if err != nil {
		return 0, err
	}
	lines, first, err := readLines(resp.Body, start)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	for i := range lines {
		lines[i] = c.reply(o.kind, lines[i])
	}
	if err := checkRows(lines, o.want.rows); err != nil {
		return 0, fmt.Errorf("frontier stream: %w", err)
	}
	c.pairSeed, c.pairLines = o.seed, lines
	return first, nil
}

// job submits a frontier job with a seed no earlier job used, follows its
// stream to the terminal frame, and deletes it.
func (c *httpClient) job(ctx context.Context, o op) error {
	resp, err := c.d.request(ctx, http.MethodPost, "/v1/jobs",
		map[string]any{"dataset": o.dataset, "fds": c.fds, "seed": o.seed}, http.StatusCreated)
	if err != nil {
		return err
	}
	var info struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("job submission reply: %w", err)
	}
	resp, err = c.d.request(ctx, http.MethodGet, "/v1/jobs/"+info.ID+"/stream", nil, http.StatusOK)
	if err != nil {
		return err
	}
	lines, _, err := readLines(resp.Body, time.Now())
	resp.Body.Close()
	if err != nil {
		return err
	}
	for i := range lines {
		lines[i] = c.reply(o.kind, lines[i])
	}
	if err := checkRows(lines, o.want.rows); err != nil {
		return fmt.Errorf("job stream: %w", err)
	}
	if c.pairSeed == o.seed && !reflect.DeepEqual(lines, c.pairLines) {
		return fmt.Errorf("job stream differs from the streamed frontier of seed %d", o.seed)
	}
	resp, err = c.d.request(ctx, http.MethodDelete, "/v1/jobs/"+info.ID, nil, http.StatusNoContent)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

type mutateOp struct {
	Op     string            `json:"op"`
	Row    int               `json:"row"`
	Values map[string]string `json:"values"`
}

func (c *httpClient) patch(ctx context.Context, o op) error {
	ops := make([]mutateOp, len(o.batch))
	for i, u := range o.batch {
		vals := make(map[string]string, len(u.values))
		for a, v := range u.values {
			vals[o.attrs[a]] = v
		}
		ops[i] = mutateOp{Op: "update", Row: u.row, Values: vals}
	}
	resp, err := c.d.request(ctx, http.MethodPatch, "/v1/datasets/"+o.dataset+"/rows",
		map[string]any{"ops": ops}, http.StatusOK)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	var got struct {
		Generation        int64 `json:"generation"`
		Applied           int   `json:"applied"`
		Rows              int   `json:"rows"`
		ComponentsDirtied int   `json:"components_dirtied"`
	}
	if err := strictDecode(c.reply(o.kind, body), &got); err != nil {
		return fmt.Errorf("patch reply: %w", err)
	}
	return samePatch(got.Generation, got.Applied, got.Rows, o.want)
}

func (c *httpClient) discover(ctx context.Context, o op) error {
	resp, err := c.d.request(ctx, http.MethodPost, "/v1/discover",
		map[string]any{"dataset": o.dataset, "max_lhs": discoverMaxLHS, "max_error": discoverMaxError}, http.StatusOK)
	if err != nil {
		return err
	}
	lines, _, err := readLines(resp.Body, time.Now())
	resp.Body.Close()
	if err != nil {
		return err
	}
	if len(lines) == 0 {
		return fmt.Errorf("discover stream is empty")
	}
	fds := make([]discoverFrame, 0, len(lines)-1)
	for _, l := range lines[:len(lines)-1] {
		var f discoverFrame
		if err := strictDecode(c.reply(o.kind, l), &f); err != nil {
			return fmt.Errorf("discover frame %q: %w", l, err)
		}
		fds = append(fds, f)
	}
	var sigma sigmaFrame
	if err := strictDecode(c.reply(o.kind, lines[len(lines)-1]), &sigma); err != nil {
		return fmt.Errorf("discover sigma frame %q: %w", lines[len(lines)-1], err)
	}
	return sameDiscovery(fds, sigma, o.want)
}

// strictDecode rejects unknown fields, so an in-band {"error": ...} frame
// never passes for a row.
func strictDecode(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after the JSON object")
	}
	return nil
}

func checkRows(lines [][]byte, want []report.Row) error {
	if len(lines) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(lines), len(want))
	}
	for i, l := range lines {
		var r report.Row
		if err := strictDecode(l, &r); err != nil {
			return fmt.Errorf("row %d %q: %w", i+1, l, err)
		}
		if err := sameRow(r, want[i]); err != nil {
			return fmt.Errorf("row %d: %w", i+1, err)
		}
	}
	return nil
}

func sameRow(got, want report.Row) error {
	if got != want {
		return fmt.Errorf("got %+v, want %+v", got, want)
	}
	return nil
}

func samePatch(generation int64, applied, rows int, want *expect) error {
	if generation != want.generation || applied != want.applied || rows != want.tuples {
		return fmt.Errorf("patch committed generation %d (%d ops, %d rows), want generation %d (%d ops, %d rows)",
			generation, applied, rows, want.generation, want.applied, want.tuples)
	}
	return nil
}

func sameDiscovery(fds []discoverFrame, sigma sigmaFrame, want *expect) error {
	if len(fds) != len(want.fds) {
		return fmt.Errorf("mined %d FDs, want %d", len(fds), len(want.fds))
	}
	for i := range fds {
		if fds[i] != want.fds[i] {
			return fmt.Errorf("FD frame %d is %+v, want %+v", i+1, fds[i], want.fds[i])
		}
	}
	if sigma != want.sigma {
		return fmt.Errorf("sigma frame %+v, want %+v", sigma, want.sigma)
	}
	return nil
}
