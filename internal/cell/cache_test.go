package cell

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// value is a computation that yields v.
func value(v string) func(context.Context) (string, error) {
	return func(context.Context) (string, error) { return v, nil }
}

// outcome is what one Do call returned.
type outcome struct {
	v      string
	shared bool
	err    error
}

// flight starts a leader whose computation runs lead once release is
// closed, then n followers for the same key, and returns every caller's
// outcome, the leader's first. A follower's own computation must never run.
func flight(t *testing.T, c *Cache[string], key string, n int, lead func(context.Context) (string, error)) []outcome {
	t.Helper()
	started, release := make(chan struct{}), make(chan struct{})
	outs := make([]outcome, n+1)
	var wg sync.WaitGroup
	wg.Add(n + 1)
	go func() {
		defer wg.Done()
		o := &outs[0]
		o.v, o.shared, o.err = c.Do(context.Background(), key, func(ctx context.Context) (string, error) {
			close(started)
			<-release
			return lead(ctx)
		})
	}()
	<-started
	for i := 1; i <= n; i++ {
		go func() {
			defer wg.Done()
			o := &outs[i]
			o.v, o.shared, o.err = c.Do(context.Background(), key, func(context.Context) (string, error) {
				t.Error("duplicate execution")
				return "", nil
			})
		}()
	}
	// Give the followers a moment to park on the flight, then release.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	return outs
}

func TestCache(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		max  int
		run  func(t *testing.T, c *Cache[string], evicted *int)
	}{
		{"bound evicts the least recent", 2, func(t *testing.T, c *Cache[string], evicted *int) {
			c.Do(context.Background(), "a", value("A"))
			c.Do(context.Background(), "b", value("B"))
			if _, ok := c.Get("a"); !ok {
				t.Fatal("a missing")
			}
			// a was just used, so adding c must evict b.
			c.Do(context.Background(), "c", value("C"))
			if *evicted != 1 || c.Len() != 2 {
				t.Fatalf("evicted %d, len %d; want 1, 2", *evicted, c.Len())
			}
			if _, ok := c.Get("b"); ok {
				t.Error("b survived eviction")
			}
			if v, ok := c.Get("a"); !ok || v != "A" {
				t.Error("a lost")
			}
			// A retained value is served without computing, as shared.
			v, shared, err := c.Do(context.Background(), "c", func(context.Context) (string, error) {
				t.Error("recomputed a retained value")
				return "", nil
			})
			if v != "C" || !shared || err != nil {
				t.Errorf("retained c = %q, shared %v, %v", v, shared, err)
			}
		}},
		{"unbounded keeps everything", 0, func(t *testing.T, c *Cache[string], evicted *int) {
			for i := 0; i < 100; i++ {
				c.Do(context.Background(), fmt.Sprint(i), value(fmt.Sprint(i)))
			}
			if *evicted != 0 || c.Len() != 100 {
				t.Fatalf("evicted %d, len %d; want 0, 100", *evicted, c.Len())
			}
			if v, ok := c.Get("0"); !ok || v != "0" {
				t.Error("oldest value lost")
			}
		}},
		{"disabled retains nothing", -1, func(t *testing.T, c *Cache[string], evicted *int) {
			if v, shared, err := c.Do(context.Background(), "x", value("X")); v != "X" || shared || err != nil {
				t.Fatalf("Do = %q, shared %v, %v", v, shared, err)
			}
			if _, ok := c.Get("x"); ok || c.Len() != 0 {
				t.Error("disabled cache cached")
			}
		}},
		{"disabled still coalesces", -1, func(t *testing.T, c *Cache[string], evicted *int) {
			outs := flight(t, c, "k", 2, value("v"))
			for i, o := range outs {
				if o.v != "v" || o.err != nil || o.shared != (i > 0) {
					t.Errorf("caller %d: %q, shared %v, %v", i, o.v, o.shared, o.err)
				}
			}
		}},
		{"bounded coalesces", 4, func(t *testing.T, c *Cache[string], evicted *int) {
			outs := flight(t, c, "k", 2, value("v"))
			for i, o := range outs {
				if o.v != "v" || o.err != nil || o.shared != (i > 0) {
					t.Errorf("caller %d: %q, shared %v, %v", i, o.v, o.shared, o.err)
				}
			}
		}},
		{"errors are shared, not retained", 0, func(t *testing.T, c *Cache[string], evicted *int) {
			outs := flight(t, c, "k", 2, func(context.Context) (string, error) { return "", boom })
			for i, o := range outs {
				if !errors.Is(o.err, boom) {
					t.Errorf("caller %d err = %v, want boom", i, o.err)
				}
			}
			if _, ok := c.Get("k"); ok || c.Len() != 0 {
				t.Fatal("error retained")
			}
			if v, shared, err := c.Do(context.Background(), "k", value("v")); v != "v" || shared || err != nil {
				t.Errorf("after an error, Do = %q, shared %v, %v; want a fresh computation", v, shared, err)
			}
		}},
		{"panic reaches every waiter", 0, func(t *testing.T, c *Cache[string], evicted *int) {
			outs := flight(t, c, "k", 2, func(context.Context) (string, error) { panic("rogue") })
			for i, o := range outs {
				if o.err == nil || !strings.Contains(o.err.Error(), "panic") || !strings.Contains(o.err.Error(), "rogue") {
					t.Errorf("caller %d err = %v, want the panic", i, o.err)
				}
			}
			if v, shared, err := c.Do(context.Background(), "k", value("v")); v != "v" || shared || err != nil {
				t.Errorf("after a panic, Do = %q, shared %v, %v; want a fresh computation", v, shared, err)
			}
		}},
		{"leader cancellation spares followers", 0, func(t *testing.T, c *Cache[string], evicted *int) {
			ctx, cancel := context.WithCancel(context.Background())
			started := make(chan struct{})
			leader := make(chan error, 1)
			go func() {
				_, _, err := c.Do(ctx, "k", func(ctx context.Context) (string, error) {
					close(started)
					<-ctx.Done()
					return "", ctx.Err()
				})
				leader <- err
			}()
			<-started
			follower := make(chan outcome, 1)
			go func() {
				var o outcome
				o.v, o.shared, o.err = c.Do(context.Background(), "k", value("v"))
				follower <- o
			}()
			time.Sleep(20 * time.Millisecond)
			cancel()
			if err := <-leader; !errors.Is(err, context.Canceled) {
				t.Errorf("leader err = %v, want its own cancellation", err)
			}
			if o := <-follower; o.v != "v" || o.shared || o.err != nil {
				t.Errorf("follower = %q, shared %v, %v; want it to take over the computation", o.v, o.shared, o.err)
			}
		}},
		{"follower's own cancellation ends its wait", 0, func(t *testing.T, c *Cache[string], evicted *int) {
			started, release := make(chan struct{}), make(chan struct{})
			leader := make(chan outcome, 1)
			go func() {
				var o outcome
				o.v, o.shared, o.err = c.Do(context.Background(), "k", func(context.Context) (string, error) {
					close(started)
					<-release
					return "v", nil
				})
				leader <- o
			}()
			<-started
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, _, err := c.Do(ctx, "k", value("dup")); !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled follower err = %v, want its own cancellation", err)
			}
			close(release)
			if o := <-leader; o.v != "v" || o.err != nil {
				t.Errorf("leader = %q, %v", o.v, o.err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			evicted := 0
			c := NewCache[string](tc.max, func(n int) { evicted += n })
			tc.run(t, c, &evicted)
		})
	}
}

// TestCacheConcurrent hammers overlapping keys through a cache small enough
// to evict constantly; run under -race it checks the locking, and every
// caller must see its key's value or its key's error.
func TestCacheConcurrent(t *testing.T) {
	var evictions sync.Mutex
	evicted := 0
	c := NewCache[string](4, func(n int) {
		evictions.Lock()
		evicted += n
		evictions.Unlock()
	})
	const goroutines, ops, keys = 8, 400, 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := (g*7 + i) % keys
				key := fmt.Sprint("k", k)
				if i%3 == 0 {
					if v, ok := c.Get(key); ok && v != key {
						t.Errorf("Get(%s) = %q", key, v)
					}
					continue
				}
				v, _, err := c.Do(context.Background(), key, func(context.Context) (string, error) {
					if k%5 == 0 {
						return "", errors.New(key)
					}
					return key, nil
				})
				if k%5 == 0 {
					if err == nil || err.Error() != key {
						t.Errorf("Do(%s) err = %v", key, err)
					}
				} else if v != key || err != nil {
					t.Errorf("Do(%s) = %q, %v", key, v, err)
				}
			}
		}()
	}
	wg.Wait()
	if n := c.Len(); n > 4 {
		t.Errorf("cache holds %d values, bound 4", n)
	}
	if evicted == 0 {
		t.Error("no evictions through a 4-entry cache over 10 keys")
	}
}
