package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"

	"github.com/vpir-sim/vpir/internal/server"
	"github.com/vpir-sim/vpir/internal/workload"
)

// The serve mix: every kernel under the four main techniques at three
// instruction caps, each cell asked for serveRepeats times, so about 80% of
// /v1/run replies come from the cache; plus /v1/trace on every kernel,
// serveTraceRepeats times each (about 5% of requests).
const (
	serveClients      = 2
	serveRepeats      = 5
	serveTraceRepeats = 3
	serveTraceInsts   = 40_000
	goldenInsts       = 120_000 // the cap testdata/golden was recorded at
)

var serveCaps = []uint64{40_000, 80_000, goldenInsts}

// request is one entry of the serve mix.
type request struct {
	path     string // "/v1/run" or "/v1/trace"
	bench    string
	tech     string
	maxInsts uint64
}

func (r request) cell() string {
	return fmt.Sprintf("%s|%s|%s|%d", r.path, r.bench, r.tech, r.maxInsts)
}

func (r request) body() []byte {
	b, _ := json.Marshal(map[string]any{ // a map of strings and numbers always marshals
		"bench": r.bench, "max_insts": r.maxInsts, "options": map[string]string{"technique": r.tech},
	})
	return b
}

// serveMix is the request sequence for a seed: a fixed multiset of
// requests, so every seed does the same simulations, in seeded order.
func serveMix(seed int64) []request {
	var mix []request
	for _, b := range workload.Names() {
		for _, t := range coreTechniques {
			for _, c := range serveCaps {
				for i := 0; i < serveRepeats; i++ {
					mix = append(mix, request{"/v1/run", b, t, c})
				}
			}
		}
		for i := 0; i < serveTraceRepeats; i++ {
			mix = append(mix, request{"/v1/trace", b, "base", serveTraceInsts})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	return mix
}

// reply is what the client saw for one request.
type reply struct {
	status int
	cache  string
	sum    [sha256.Size]byte
	body   []byte // kept only for /v1/run MISS replies, which are decoded
	err    error
}

// serve sends the mix through serveClients closed-loop clients, with no
// think time, to an in-process server with two workers over loopback. Each
// unit starts a fresh server, so its cache is cold.
type serve struct {
	seed   int64
	mix    []request
	golden map[string]map[string]any
}

// setup builds the request mix and starts a server and its listener, the
// set-up a serving process pays once; each unit then starts its own.
func (w *serve) setup(*tracer) error {
	w.mix = serveMix(w.seed)
	srv, ts := startServer()
	ts.Close()
	return srv.Drain(context.Background())
}

// prepare reads the golden records and sends the mix once, untimed; its
// replies are checked again in every timed unit. workload.Load keeps every
// program for the life of the process and the core's oracle cache is keyed
// by program, so only the first server in a process pays the oracle
// pre-runs; after the warm-up every unit's misses cost the same, as in a
// process that has served before.
func (w *serve) prepare() error {
	w.golden = map[string]map[string]any{}
	for _, b := range workload.Names() {
		for _, t := range coreTechniques {
			raw, err := readRepoFile(filepath.Join("testdata", "golden", b+"_"+t+".json"))
			if err != nil {
				return err
			}
			var g map[string]any
			if err := json.Unmarshal(raw, &g); err != nil {
				return fmt.Errorf("golden %s/%s: %w", b, t, err)
			}
			w.golden[b+"|"+t] = g
		}
	}
	w.unit(nil)
	return nil
}

func startServer() (*server.Server, *httptest.Server) {
	srv := server.New(server.Config{Workers: serveClients})
	return srv, httptest.NewServer(srv.Handler())
}

func (w *serve) unit(tr *tracer) unitResult {
	srv, ts := startServer()
	transport := &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}
	client := &http.Client{Transport: transport}

	replies := make([]reply, len(w.mix))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(w.mix) {
					return
				}
				replies[i] = send(tr, client, ts.URL, i+1, w.mix[i])
			}
		}()
	}
	wg.Wait()
	transport.CloseIdleConnections()
	ts.Close()
	u := unitResult{attempted: 1} // the drain, then one per request
	if err := srv.Drain(context.Background()); err != nil {
		u.fail("drain: %v", err)
	}
	w.check(&u, replies)
	return u
}

// send performs one request under a serve.request span whose children are
// the HTTP round trip and the client's hashing of the body.
func send(tr *tracer, client *http.Client, url string, id int, rq request) reply {
	root := tr.start("serve.request", 0, id)
	defer tr.end(root)
	name := "server.run"
	if rq.path == "/v1/trace" {
		name = "server.trace"
	}
	sp := tr.start(name, root, id)
	var rp reply
	var body []byte
	resp, err := client.Post(url+rq.path, "application/json", bytes.NewReader(rq.body()))
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		rp.status, rp.cache = resp.StatusCode, resp.Header.Get("X-Cache")
	}
	tr.endWith(sp, func(s *span) { s.Tag, s.Bytes = rp.cache, uint64(len(body)) })
	if err != nil {
		rp.err = err
		return rp
	}
	hs := tr.start("bench.hash", root, id)
	rp.sum = sha256.Sum256(body)
	if rq.path == "/v1/run" && rp.cache == "MISS" {
		rp.body = body
	}
	tr.end(hs)
	return rp
}

// check verifies a unit's replies: every request succeeded, every reply
// for a cell has the same body as the reply that simulated it, and every
// simulated /v1/run reply at the golden cap matches testdata/golden.
func (w *serve) check(u *unitResult, replies []reply) {
	first := map[string][sha256.Size]byte{}
	for i, rp := range replies {
		rq := w.mix[i]
		u.attempted++
		if rp.err != nil || rp.status != http.StatusOK {
			u.fail("%s: status %d, %v", rq.cell(), rp.status, rp.err)
			continue
		}
		if sum, ok := first[rq.cell()]; !ok {
			first[rq.cell()] = rp.sum
		} else if sum != rp.sum {
			u.fail("%s: %s body differs from the cell's other replies", rq.cell(), rp.cache)
			continue
		}
		if rp.body == nil {
			continue
		}
		var resp server.RunResponse
		if err := json.Unmarshal(rp.body, &resp); err != nil {
			u.fail("%s: %v", rq.cell(), err)
			continue
		}
		u.insts += resp.Stats.Committed
		u.stats = append(u.stats, keyedStats{key: fmt.Sprintf("%s|%x", rq.cell(), rp.sum)})
		if rq.maxInsts == goldenInsts {
			if msg := matchGolden(w.golden[rq.bench+"|"+rq.tech], rp.body); msg != "" {
				u.fail("%s: %s", rq.cell(), msg)
			}
		}
	}
}

// matchGolden compares a /v1/run body with a golden record: every golden
// field but the labels must equal the reply's stats field of the same name
// (exit_code is compared with the reply's exit code).
func matchGolden(golden map[string]any, body []byte) string {
	if golden == nil {
		return "no golden record"
	}
	var got struct {
		Stats    map[string]any `json:"stats"`
		ExitCode any            `json:"exit_code"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err.Error()
	}
	if got.Stats == nil {
		return "reply has no stats"
	}
	got.Stats["exit_code"] = got.ExitCode
	for k, want := range golden {
		if k == "bench" || k == "config" {
			continue
		}
		if have, ok := got.Stats[k]; !ok || have != want {
			return fmt.Sprintf("%s = %v, golden %v", k, have, want)
		}
	}
	return ""
}
