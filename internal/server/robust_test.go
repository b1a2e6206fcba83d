package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/vpir-sim/vpir/internal/resultstore"
)

// sweepBody posts a sweep request and returns the raw NDJSON stream.
func sweepBody(t *testing.T, url string, req SweepRequest) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("sweep status = %d, body %s", resp.StatusCode, raw)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestSweepExplicitCells(t *testing.T) {
	_, ts := testServer(t, Config{})
	// The cell list deliberately repeats a bench and reorders configs —
	// shapes a grid can't express.
	req := SweepRequest{
		Cells: []SweepCellSpec{
			{Bench: "gcc", Options: SimOptions{Technique: "ir"}},
			{Bench: "vortex", Options: SimOptions{}},
			{Bench: "gcc", Options: SimOptions{}},
		},
		MaxInsts: 10_000,
	}
	raw := sweepBody(t, ts.URL, req)
	var lines []SweepLine
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "#") {
			continue
		}
		var l SweepLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4 (3 cells + done)", len(lines))
	}
	wantBench := []string{"gcc", "vortex", "gcc"}
	wantCfg := []string{"IR", "base", "base"}
	for i, l := range lines[:3] {
		if l.Index != i || l.Bench != wantBench[i] || l.Config != wantCfg[i] {
			t.Errorf("line %d = %d/%s/%s, want %d/%s/%s", i, l.Index, l.Bench, l.Config, i, wantBench[i], wantCfg[i])
		}
		if l.Stats == nil || l.Stats.IPC <= 0 {
			t.Errorf("cell %d missing stats: %+v", i, l)
		}
	}
	if !lines[3].Done || lines[3].Cells != 3 {
		t.Errorf("done line = %+v", lines[3])
	}

	// Mixing forms is rejected.
	body, _ := json.Marshal(SweepRequest{
		Benches: []string{"gcc"},
		Options: []SimOptions{{}},
		Cells:   []SweepCellSpec{{Bench: "gcc"}},
	})
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mixed-form status = %d, want 400", resp.StatusCode)
	}
}

func TestSweepHeartbeats(t *testing.T) {
	// A 1 ms heartbeat against multi-millisecond cells must interleave
	// comment lines; stripping them leaves a valid, ordered stream.
	s, ts := testServer(t, Config{Heartbeat: time.Millisecond})
	raw := sweepBody(t, ts.URL, SweepRequest{
		Benches:  []string{"vortex"},
		Options:  []SimOptions{{}, {Technique: "ir"}},
		MaxInsts: 60_000,
	})
	heartbeats, data := 0, 0
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "#") {
			heartbeats++
			if sc.Text()+"\n" != HeartbeatLine {
				t.Errorf("heartbeat line = %q", sc.Text())
			}
			continue
		}
		var l SweepLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		data++
	}
	if heartbeats == 0 {
		t.Error("no heartbeat lines in a slow sweep with a 1ms interval")
	}
	if data != 3 {
		t.Errorf("data lines = %d, want 3", data)
	}
	if s.Metrics().Counter("server.sweep.heartbeats") == 0 {
		t.Error("heartbeat counter not incremented")
	}
}

func TestSweepClientCancelFreesSlots(t *testing.T) {
	// An abandoned sweep must stop consuming simulation slots promptly:
	// the handler notices the cancelled request context between lines
	// (not merely at the next failed write) and the runner's workers see
	// the derived context. Observable as a fast, clean drain.
	s, ts := testServer(t, Config{Workers: 2, SweepParallelism: 2})
	req := SweepRequest{
		Benches:  []string{"vortex", "gcc", "perl", "go"},
		Options:  []SimOptions{{}, {Technique: "ir"}, {Technique: "vp"}, {Technique: "hybrid"}},
		MaxInsts: 400_000,
	}
	body, _ := json.Marshal(req)
	ctx, cancel := context.WithCancel(context.Background())
	hreq, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	// Read the first line so the sweep is demonstrably in flight, then
	// hang up mid-stream.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("first line: %v", err)
	}
	cancel()
	resp.Body.Close()

	// The drain below can only complete once the abandoned request's
	// in-flight accounting is released and its workers unwound.
	dctx, dcancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer dcancel()
	start := time.Now()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain after client cancel: %v", err)
	}
	if waited := time.Since(start); waited > 15*time.Second {
		t.Errorf("drain took %v; cancellation did not propagate promptly", waited)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().Counter("server.sweep.aborted") == 0 {
		if time.Now().After(deadline) {
			t.Error("sweep abort not recorded")
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDrainRetryAfter(t *testing.T) {
	s, ts := testServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/run", "/v1/sweep"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s status = %d, want 503", path, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != retryAfterSeconds {
			t.Errorf("%s Retry-After = %q, want %q", path, ra, retryAfterSeconds)
		}
	}
}

func TestRunStoreBacksLRU(t *testing.T) {
	dir := t.TempDir()
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := testServer(t, Config{Store: store})
	req := RunRequest{Bench: "vortex", MaxInsts: 12_000, Options: SimOptions{Technique: "ir"}}

	resp, body := postRun(t, ts1.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "MISS" {
		t.Errorf("first X-Cache = %q", got)
	}
	if s1.Metrics().Counter("server.store.puts") != 1 {
		t.Errorf("store.puts = %d, want 1", s1.Metrics().Counter("server.store.puts"))
	}

	// A "restarted" server — fresh process state, same store directory —
	// serves the repeat from disk, byte-identically, without simulating.
	store2, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, ts2 := testServer(t, Config{Store: store2})
	resp2, body2 := postRun(t, ts2.URL, req)
	if got := resp2.Header.Get("X-Cache"); got != "STORE" {
		t.Fatalf("restarted X-Cache = %q, want STORE", got)
	}
	if !bytes.Equal(body, body2) {
		t.Errorf("store body differs from computed body:\n%s\n%s", body, body2)
	}
	if s2.Metrics().Counter("server.store.hits") != 1 {
		t.Errorf("store.hits = %d, want 1", s2.Metrics().Counter("server.store.hits"))
	}
	// The store hit was promoted into the LRU: a third request is a plain
	// HIT without touching disk again.
	resp3, body3 := postRun(t, ts2.URL, req)
	if got := resp3.Header.Get("X-Cache"); got != "HIT" {
		t.Errorf("third X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(body, body3) {
		t.Error("LRU-promoted body differs")
	}
}

// TestLeaderHangupSparesFollowers: when the client whose request is
// simulating a cell hangs up mid-run, another request for the same cell,
// which joined the run while it was in flight, is still answered with the
// body a fresh run gives — not with the first client's cancellation.
func TestLeaderHangupSparesFollowers(t *testing.T) {
	s, ts := testServer(t, Config{})
	req := RunRequest{Bench: "gcc", MaxInsts: 1_000_000}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	post := func(ctx context.Context) (int, []byte, error) {
		hreq, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/run", bytes.NewReader(raw))
		if err != nil {
			return 0, nil, err
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	leaderCtx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		post(leaderCtx)
	}()
	waitFor("the leader's simulation", func() bool { return s.Metrics().Gauge("server.sims.inflight") == 1 })

	type reply struct {
		status int
		body   []byte
		err    error
	}
	follower := make(chan reply, 1)
	go func() {
		status, body, err := post(context.Background())
		follower <- reply{status, body, err}
	}()
	waitFor("the follower's miss", func() bool { return s.Metrics().Counter("server.cache.misses") == 2 })
	time.Sleep(20 * time.Millisecond) // let the follower join the leader's run
	hangUp()
	<-leaderDone

	f := <-follower
	if f.err != nil || f.status != http.StatusOK {
		t.Fatalf("follower got %d %s (%v), want 200", f.status, f.body, f.err)
	}
	_, fresh := testServer(t, Config{})
	resp, want := postRun(t, fresh.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh run status = %d, body %s", resp.StatusCode, want)
	}
	if !bytes.Equal(f.body, want) {
		t.Errorf("follower body differs from a fresh run's:\n%s\n%s", f.body, want)
	}
}
