// Package coord is the fault-tolerant distributed sweep fabric: a
// coordinator that partitions sweep cells across a fleet of backend
// vpir-server workers and merges their NDJSON streams back into one
// deterministic, byte-identical-to-serial result stream.
//
// Failure is the first-class design input. Each backend sits behind a
// consecutive-failure circuit breaker with half-open /healthz probes; each
// cell carries a bounded retry budget with capped exponential backoff and
// seeded jitter; a backend whose stream goes quiet past the heartbeat
// interval gets its oldest outstanding cell hedged to a second backend
// (results are byte-identical by the determinism contract, so the first
// one to arrive wins and the duplicate is discarded without touching the
// stats); and when every backend is down the coordinator degrades to an
// in-process executor — a coordinator with zero workers still completes
// every sweep. Underneath, a content-addressed on-disk store
// (internal/resultstore) makes results durable: a restarted coordinator
// re-serves history instead of recomputing it. See docs/distributed.md.
package coord

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/vpir-sim/vpir/internal/cell"
	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/obs"
	"github.com/vpir-sim/vpir/internal/resultstore"
	"github.com/vpir-sim/vpir/internal/server"
)

// Defaults for the Config zero value.
const (
	DefaultMaxSweepCells = 1024
	DefaultCellTimeout   = 2 * time.Minute
	DefaultHedgeAfter    = 2 * time.Second
	DefaultMaxAttempts   = 3
	DefaultBaseBackoff   = 100 * time.Millisecond
	DefaultMaxBackoff    = 2 * time.Second
	DefaultFailThreshold = 3
	DefaultProbeInterval = time.Second
)

// Config tunes the coordinator. The zero value (no backends, no local
// executor) is rejected by New: a coordinator needs at least one way to
// run a cell.
type Config struct {
	// Backends are the worker base URLs ("http://host:port"). Order is
	// irrelevant: cells are routed by rendezvous hashing of their
	// identity, so every coordinator agrees on placement.
	Backends []string
	// Local, when non-nil, is the in-process executor used when no
	// healthy backend remains (and for a fleet of zero). It is a full
	// simulation server, so local results are byte-identical to worker
	// results.
	Local *server.Server
	// Store, when non-nil, is the durable content-addressed result store:
	// cells are served from it before any dispatch, and every computed
	// cell is written through.
	Store *resultstore.Store
	// Client is the HTTP client for backend traffic (nil = a default
	// client with no global timeout; per-attempt deadlines bound runs).
	Client *http.Client
	// MaxSweepCells bounds one sweep request (0 = 1024).
	MaxSweepCells int
	// CellTimeout bounds one remote /v1/run attempt (0 = 2 m).
	CellTimeout time.Duration
	// HedgeAfter is how long a backend stream may go quiet — no result
	// lines, no heartbeats — before its oldest outstanding cell is
	// hedged to another backend (0 = 2 s).
	HedgeAfter time.Duration
	// StallAfter is how long a quiet stream is tolerated before it is
	// declared dead and its remaining cells re-dispatched (0 = 3×HedgeAfter).
	StallAfter time.Duration
	// MaxAttempts bounds remote attempts per cell before the local
	// fallback (0 = 3).
	MaxAttempts int
	// BaseBackoff/MaxBackoff shape the capped exponential retry backoff
	// (0 = 100 ms / 2 s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// FailThreshold is the consecutive-failure count that trips a
	// backend's circuit breaker open (0 = 3).
	FailThreshold int
	// ProbeInterval is the /healthz probe cadence for open breakers
	// (0 = 1 s).
	ProbeInterval time.Duration
	// Heartbeat is the coordinator's own output heartbeat interval
	// (0 = the server default; negative disables).
	Heartbeat time.Duration
	// Seed feeds the retry jitter source; fixed seeds make tests
	// reproducible.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.MaxSweepCells <= 0 {
		c.MaxSweepCells = DefaultMaxSweepCells
	}
	if c.CellTimeout == 0 {
		c.CellTimeout = DefaultCellTimeout
	}
	if c.HedgeAfter <= 0 {
		c.HedgeAfter = DefaultHedgeAfter
	}
	if c.StallAfter <= 0 {
		c.StallAfter = 3 * c.HedgeAfter
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = DefaultBaseBackoff
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = DefaultMaxBackoff
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = DefaultFailThreshold
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	if c.Heartbeat == 0 {
		c.Heartbeat = server.DefaultHeartbeat
	}
	return c
}

// Coordinator is the sweep fabric's front end: Handler serves the same
// /v1/sweep API as a single server, but fanned out over the fleet.
type Coordinator struct {
	cfg     Config
	remotes []*backend
	local   *backend
	client  *http.Client
	policy  *retryPolicy
	metrics *obs.Shared

	stateMu  sync.Mutex
	draining bool
	inflight sync.WaitGroup

	stopProbe chan struct{}
	stopOnce  sync.Once
}

// New builds a coordinator over the configured fleet and starts its
// health prober. Close it when done.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 && cfg.Local == nil {
		return nil, fmt.Errorf("coord: no backends and no local executor")
	}
	c := &Coordinator{
		cfg:       cfg,
		client:    cfg.Client,
		policy:    newRetryPolicy(cfg.BaseBackoff, cfg.MaxBackoff, cfg.MaxAttempts, cfg.Seed),
		metrics:   obs.NewShared(),
		stopProbe: make(chan struct{}),
	}
	if c.client == nil {
		c.client = &http.Client{}
	}
	seen := make(map[string]bool)
	for _, u := range cfg.Backends {
		u = strings.TrimRight(u, "/")
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		c.remotes = append(c.remotes, &backend{url: u})
	}
	if cfg.Local != nil {
		// The URL never reaches a socket — doLocal serves it in-process —
		// but it must parse so request construction is uniform.
		c.local = &backend{url: "http://local"}
	}
	go c.probe(c.stopProbe)
	return c, nil
}

// Close stops the health prober. It does not drain in-flight sweeps; call
// Drain first for a graceful shutdown.
func (c *Coordinator) Close() { c.stopOnce.Do(func() { close(c.stopProbe) }) }

// Metrics exposes the coordinator's instrument registry.
func (c *Coordinator) Metrics() *obs.Shared { return c.metrics }

// cellTask is one sweep cell in flight: its global index, wire spec, the
// full identity it is routed and stored by, and the display name a valid
// result must carry.
type cellTask struct {
	index      int
	spec       server.SweepCellSpec
	id         cell.ID
	key        string // id.Key(): the rendezvous routing key
	wantConfig string // cfg.Name(): transport-corruption guard
	hedged     bool   // guarded by sweepRun.mu
}

// storeKey namespaces coordinator entries so a store directory can be
// shared with a server's /v1/run entries (different body format).
func (t *cellTask) storeKey() string { return t.id.CoordKey() }

// sweepRun is the merge state of one distributed sweep: lines fill in as
// cells resolve (in any order, from any path — stream, hedge, retry,
// store, local), ready[i] closes exactly once per cell, and the HTTP
// layer emits lines in deterministic cell order.
type sweepRun struct {
	ctx      context.Context
	scale    int
	maxInsts uint64
	tasks    []*cellTask
	ready    []chan struct{}

	mu       sync.Mutex
	done     []bool
	lines    []server.SweepLine
	failed   int
	resolved int
}

// resolve records cell i's line if it is the first to arrive; a losing
// duplicate (the hedge that came second) is discarded without touching
// any totals, so hedging can never double-count.
func (r *sweepRun) resolve(i int, line server.SweepLine) bool {
	line.Index = i
	r.mu.Lock()
	if r.done[i] {
		r.mu.Unlock()
		return false
	}
	r.done[i] = true
	r.lines[i] = line
	r.resolved++
	if line.Error != "" {
		r.failed++
	}
	r.mu.Unlock()
	close(r.ready[i])
	return true
}

func (r *sweepRun) isResolved(i int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done[i]
}

func (r *sweepRun) allResolved(tasks []*cellTask) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range tasks {
		if !r.done[t.index] {
			return false
		}
	}
	return true
}

// markHedged claims the hedge slot for a task; at most one hedge per cell.
func (r *sweepRun) markHedged(t *cellTask) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done[t.index] || t.hedged {
		return false
	}
	t.hedged = true
	return true
}

// line returns cell i's resolved line; only valid after ready[i] closed.
func (r *sweepRun) line(i int) server.SweepLine {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lines[i]
}

func (r *sweepRun) totals() (cells, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.tasks), r.failed
}

// newRun builds the merge state and immediately resolves every cell the
// durable store already has — a warm store turns a repeat sweep into pure
// disk reads.
func (c *Coordinator) newRun(ctx context.Context, specs []server.SweepCellSpec, cfgs []core.Config, scale int, maxInsts uint64) *sweepRun {
	run := &sweepRun{
		ctx:      ctx,
		scale:    scale,
		maxInsts: maxInsts,
		tasks:    make([]*cellTask, len(specs)),
		ready:    make([]chan struct{}, len(specs)),
		done:     make([]bool, len(specs)),
		lines:    make([]server.SweepLine, len(specs)),
	}
	for i := range specs {
		// The same cell identity the server caches and stores by.
		id := specs[i].ID(scale, maxInsts, cfgs[i])
		run.ready[i] = make(chan struct{})
		run.tasks[i] = &cellTask{index: i, spec: specs[i], id: id, key: id.Key(), wantConfig: cfgs[i].Name()}
	}
	c.metrics.Add("coord.cells.total", uint64(len(specs)))
	for _, t := range run.tasks {
		if line, ok := c.storeGet(t); ok {
			run.resolve(t.index, line)
		}
	}
	return run
}

// dispatch routes every unresolved cell: rendezvous-ranked healthy
// backends get partitions streamed as one sweep each; with no healthy
// backend a cell goes straight to the local executor.
func (c *Coordinator) dispatch(run *sweepRun) {
	groups := make(map[*backend][]*cellTask)
	for _, t := range run.tasks {
		if run.isResolved(t.index) {
			continue
		}
		b := c.pick(t.key, nil)
		if b == nil {
			// No executor at all: New guarantees this cannot happen, but
			// resolve rather than hang if it ever does.
			run.resolve(t.index, server.SweepLine{
				Bench: t.spec.Bench, Config: t.wantConfig,
				Error: "coord: no backend available",
			})
			continue
		}
		groups[b] = append(groups[b], t)
	}
	for b, tasks := range groups {
		go c.streamSweep(run, b, tasks)
	}
}

// pick returns the first healthy backend in the cell's rendezvous order,
// skipping exclude (the hedge's primary); the local executor is the
// fallback of last resort.
func (c *Coordinator) pick(key string, exclude *backend) *backend {
	for _, b := range rank(key, c.remotes) {
		if b != exclude && b.allow() {
			return b
		}
	}
	if c.local != nil && c.local != exclude {
		return c.local
	}
	return nil
}

// do issues one HTTP request, in-process when the target is the local
// executor.
func (c *Coordinator) do(b *backend, req *http.Request) (*http.Response, error) {
	if b == c.local {
		return doLocal(c.cfg.Local.Handler(), req)
	}
	return c.client.Do(req)
}

// backendFailure records a failed interaction; tripping a breaker is
// observable in the metrics. The local executor has no breaker — it is
// the floor the fabric degrades onto.
func (c *Coordinator) backendFailure(b *backend) {
	if b == c.local {
		c.metrics.Inc("coord.local.errors")
		return
	}
	c.metrics.Inc("coord.backend.failures")
	if b.onFailure(c.cfg.FailThreshold) {
		c.metrics.Inc("coord.breaker.opens")
	}
}

// streamSweep is the primary dispatch path: one /v1/sweep covering the
// backend's whole partition, consumed line by line. Heartbeat comments
// prove liveness; a quiet stream first hedges its oldest outstanding cell
// and is eventually declared dead, re-dispatching the remainder.
func (c *Coordinator) streamSweep(run *sweepRun, b *backend, tasks []*cellTask) {
	sctx, cancel := context.WithCancel(run.ctx)
	defer cancel()
	c.metrics.Inc("coord.streams")

	var lastActivity atomic.Int64
	lastActivity.Store(time.Now().UnixNano())

	wdDone := make(chan struct{})
	go c.streamWatchdog(run, b, tasks, cancel, &lastActivity, wdDone)
	err := c.readStream(sctx, run, b, tasks, &lastActivity)
	close(wdDone)

	switch {
	case err == nil:
		b.onSuccess()
	case run.allResolved(tasks) || run.ctx.Err() != nil:
		// We canceled the stream ourselves — every cell resolved through
		// another path, or the sweep is over. Not the backend's fault; do
		// not feed its breaker.
	default:
		c.metrics.Inc("coord.stream.failures")
		c.backendFailure(b)
	}
	// Whatever the stream left unresolved — it died, stalled, or ended
	// early — goes through the per-cell retry path. Unlike a hedge, the
	// requeue does not exclude the stream's backend: the fault may have
	// been transient, and backoff plus the breaker decide when to stop
	// believing that. resolve() dedupes against hedges already in flight.
	for _, t := range tasks {
		if !run.isResolved(t.index) {
			go c.finishCell(run, t, nil)
		}
	}
}

// streamWatchdog turns heartbeat gaps into straggler signals: past
// HedgeAfter of silence the oldest outstanding cell is hedged to another
// backend; past StallAfter the stream is declared dead.
func (c *Coordinator) streamWatchdog(run *sweepRun, b *backend, tasks []*cellTask, kill context.CancelFunc, lastActivity *atomic.Int64, done <-chan struct{}) {
	interval := c.cfg.HedgeAfter / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			return
		case <-run.ctx.Done():
			return
		case <-ticker.C:
		}
		if run.allResolved(tasks) {
			kill() // nothing left to read; unblock the reader
			return
		}
		quiet := time.Since(time.Unix(0, lastActivity.Load()))
		if quiet >= c.cfg.StallAfter {
			c.metrics.Inc("coord.streams.stalled")
			kill()
			return
		}
		if quiet >= c.cfg.HedgeAfter {
			for _, t := range tasks {
				if !run.isResolved(t.index) && run.markHedged(t) {
					c.metrics.Inc("coord.hedges")
					go c.finishCell(run, t, b)
					break
				}
			}
		}
	}
}

// readStream consumes one backend's NDJSON sweep stream, resolving global
// cells as their lines arrive. Any transport damage — non-200, truncated
// line, JSON that doesn't parse, a line whose identity doesn't match the
// cell it claims — fails the whole stream rather than absorbing a wrong
// result.
func (c *Coordinator) readStream(ctx context.Context, run *sweepRun, b *backend, tasks []*cellTask, lastActivity *atomic.Int64) error {
	specs := make([]server.SweepCellSpec, len(tasks))
	for i, t := range tasks {
		specs[i] = t.spec
	}
	body, err := json.Marshal(server.SweepRequest{Cells: specs, Scale: run.scale, MaxInsts: run.maxInsts})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.do(b, req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("coord: %s sweep: status %d", b.url, resp.StatusCode)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	sawDone := false
	for sc.Scan() {
		lastActivity.Store(time.Now().UnixNano())
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if raw[0] == '#' {
			continue // heartbeat: liveness only
		}
		var line server.SweepLine
		if err := json.Unmarshal(raw, &line); err != nil {
			return fmt.Errorf("coord: %s sweep: corrupt line: %w", b.url, err)
		}
		if line.Done {
			sawDone = true
			break
		}
		if line.Index < 0 || line.Index >= len(tasks) {
			return fmt.Errorf("coord: %s sweep: cell index %d out of partition", b.url, line.Index)
		}
		t := tasks[line.Index]
		if err := validateLine(t, line); err != nil {
			return fmt.Errorf("coord: %s sweep: %w", b.url, err)
		}
		// Persist before resolving: once ready[i] closes the line may be
		// emitted, and an emitted result must already be durable.
		if line.Error == "" {
			c.storePut(t, line)
		}
		if !run.resolve(t.index, line) {
			c.metrics.Inc("coord.duplicates.discarded")
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("coord: %s sweep: %w", b.url, err)
	}
	if !sawDone {
		return fmt.Errorf("coord: %s sweep: stream ended without done line", b.url)
	}
	return nil
}

// validateLine rejects results the transport may have damaged in ways
// that still parse: the line must describe exactly the cell it resolves,
// and carry either plausible stats or an explicit error.
func validateLine(t *cellTask, line server.SweepLine) error {
	if line.Bench != t.spec.Bench || line.Config != t.wantConfig {
		return fmt.Errorf("cell %d identity mismatch: got %s/%s, want %s/%s",
			t.index, line.Bench, line.Config, t.spec.Bench, t.wantConfig)
	}
	if line.Error == "" && (line.Stats == nil || line.Stats.Cycles == 0) {
		return fmt.Errorf("cell %d carries neither stats nor error", t.index)
	}
	return nil
}

// finishCell is the per-cell recovery path — hedges and re-dispatch after
// a dead stream: bounded remote attempts with capped, jittered backoff
// across healthy backends, then the local executor, then (only with no
// local executor) an error line. Every path resolves the cell; a sweep
// can stall but never wedge.
func (c *Coordinator) finishCell(run *sweepRun, t *cellTask, exclude *backend) {
	var lastErr error
	for attempt := 0; attempt < c.policy.attempts; attempt++ {
		if run.isResolved(t.index) || run.ctx.Err() != nil {
			return
		}
		if attempt > 0 {
			c.metrics.Inc("coord.retries")
			select {
			case <-time.After(c.policy.delay(attempt - 1)):
			case <-run.ctx.Done():
				// The sweep is over (client gone); resolve with the
				// context error so no reader blocks forever.
				break
			}
		}
		b := c.pick(t.key, exclude)
		if b == nil {
			break
		}
		if b == c.local {
			break // fall through to the explicit local path
		}
		line, err := c.runRemote(run, t, b)
		if err != nil {
			lastErr = err
			c.backendFailure(b)
			continue
		}
		b.onSuccess()
		c.storePut(t, line)
		if !run.resolve(t.index, line) {
			c.metrics.Inc("coord.duplicates.discarded")
		}
		return
	}
	if c.local != nil {
		line, err := c.runRemote(run, t, c.local)
		if err == nil {
			c.metrics.Inc("coord.cells.local")
			c.storePut(t, line)
			if !run.resolve(t.index, line) {
				c.metrics.Inc("coord.duplicates.discarded")
			}
			return
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("coord: no backend available")
	}
	c.metrics.Inc("coord.cells.failed")
	run.resolve(t.index, server.SweepLine{Bench: t.spec.Bench, Config: t.wantConfig, Error: lastErr.Error()})
}

// runRemote executes one cell as a single /v1/run against one backend
// (remote or local) under the per-attempt deadline, returning a sweep
// line byte-identical to what the cell's worker stream would have
// produced.
func (c *Coordinator) runRemote(run *sweepRun, t *cellTask, b *backend) (server.SweepLine, error) {
	if t.spec.Sample != nil {
		// /v1/run cannot express an interval cell, and its response lacks
		// the raw counters a stitcher needs; sampled cells are hedged as
		// single-cell sweeps so the recovered line is exactly what the dead
		// worker's stream would have carried.
		return c.runSampledCell(run, t, b)
	}
	ctx := run.ctx
	if c.cfg.CellTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.CellTimeout)
		defer cancel()
	}
	body, err := json.Marshal(server.RunRequest{
		Bench: t.spec.Bench, Scale: run.scale, MaxInsts: run.maxInsts, Options: t.spec.Options,
	})
	if err != nil {
		return server.SweepLine{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return server.SweepLine{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.do(b, req)
	if err != nil {
		return server.SweepLine{}, fmt.Errorf("coord: %s run: %w", b.url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return server.SweepLine{}, fmt.Errorf("coord: %s run: status %d", b.url, resp.StatusCode)
	}
	var rr server.RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return server.SweepLine{}, fmt.Errorf("coord: %s run: corrupt body: %w", b.url, err)
	}
	line := server.SweepLine{Bench: rr.Bench, Config: rr.Stats.Config, Stats: &rr.Stats}
	if err := validateLine(t, line); err != nil {
		return server.SweepLine{}, fmt.Errorf("coord: %s run: %w", b.url, err)
	}
	return line, nil
}

// runSampledCell recovers one sampled cell as a single-cell /v1/sweep: the
// only endpoint that can name an interval of a sampling plan, and the only
// one whose line carries the raw counters, interval measurement and retry
// audit the stitcher consumes.
func (c *Coordinator) runSampledCell(run *sweepRun, t *cellTask, b *backend) (server.SweepLine, error) {
	ctx := run.ctx
	if c.cfg.CellTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.CellTimeout)
		defer cancel()
	}
	body, err := json.Marshal(server.SweepRequest{
		Cells: []server.SweepCellSpec{t.spec}, Scale: run.scale, MaxInsts: run.maxInsts,
	})
	if err != nil {
		return server.SweepLine{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return server.SweepLine{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.do(b, req)
	if err != nil {
		return server.SweepLine{}, fmt.Errorf("coord: %s sampled cell: %w", b.url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return server.SweepLine{}, fmt.Errorf("coord: %s sampled cell: status %d", b.url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		raw := sc.Bytes()
		if len(raw) == 0 || raw[0] == '#' {
			continue // heartbeat: liveness only
		}
		var line server.SweepLine
		if err := json.Unmarshal(raw, &line); err != nil {
			return server.SweepLine{}, fmt.Errorf("coord: %s sampled cell: corrupt line: %w", b.url, err)
		}
		if line.Done {
			break
		}
		if line.Error != "" {
			return server.SweepLine{}, fmt.Errorf("coord: %s sampled cell: %s", b.url, line.Error)
		}
		if err := validateLine(t, line); err != nil {
			return server.SweepLine{}, fmt.Errorf("coord: %s sampled cell: %w", b.url, err)
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return server.SweepLine{}, fmt.Errorf("coord: %s sampled cell: %w", b.url, err)
	}
	return server.SweepLine{}, fmt.Errorf("coord: %s sampled cell: stream ended without a result", b.url)
}

// storeGet serves a cell from the durable store if an intact entry
// matches its identity.
func (c *Coordinator) storeGet(t *cellTask) (server.SweepLine, bool) {
	if c.cfg.Store == nil {
		return server.SweepLine{}, false
	}
	body, ok, err := c.cfg.Store.Get(t.storeKey())
	if err != nil || !ok {
		if err != nil {
			c.metrics.Inc("coord.store.errors")
		} else {
			c.metrics.Inc("coord.store.misses")
		}
		return server.SweepLine{}, false
	}
	var line server.SweepLine
	if err := json.Unmarshal(body, &line); err != nil || validateLine(t, line) != nil {
		// Checksum-intact but semantically stale (e.g. written by an
		// older wire format): ignore and recompute.
		c.metrics.Inc("coord.store.misses")
		return server.SweepLine{}, false
	}
	c.metrics.Inc("coord.store.hits")
	return line, true
}

// storePut writes a successful cell through to the durable store.
func (c *Coordinator) storePut(t *cellTask, line server.SweepLine) {
	if c.cfg.Store == nil {
		return
	}
	line.Index = 0 // identity lives in the key; indices are per-sweep
	body, err := json.Marshal(line)
	if err != nil {
		return
	}
	if err := c.cfg.Store.Put(t.storeKey(), body); err != nil {
		c.metrics.Inc("coord.store.errors")
		return
	}
	c.metrics.Inc("coord.store.puts")
}
