package cell

import (
	"context"
	"fmt"
	"sync"
)

// Cache is the in-memory result cache of every layer that memoizes cells:
// the harness Runner's cell results, its fast-forward passes and limit
// studies, and the server's marshaled /v1/run and /v1/trace bodies. It is
// keyed by a cell's Key or TraceKey.
//
// Each key is computed once however many callers want it at the same time.
// The first caller of Do for a missing key runs the computation (the
// leader); later callers wait for it and share its outcome (followers). A
// value is retained within the bound; an error never is, so the next call
// recomputes. A panic in the computation becomes the error of the leader
// and of every follower.
//
// The bound is fixed at construction. A positive bound keeps that many most
// recently used values, 0 keeps every value (this is the zero Cache), and a
// negative bound keeps none but still coalesces concurrent calls.
//
// A Cache is safe for concurrent use. Get is one mutex and one map lookup.
type Cache[V any] struct {
	max     int
	onEvict func(n int)

	mu    sync.Mutex
	m     map[string]*entry[V]
	lru   entry[V] // recency list sentinel: lru.next is the most recent entry
	calls map[string]*call[V]
}

type entry[V any] struct {
	key        string
	val        V
	prev, next *entry[V]
}

// call is one in-flight computation. The leader writes its fields before it
// closes done; followers read them after.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
	// abandoned marks an error that the leader's own context caused. The
	// followers still want the value, so they retry instead of sharing it.
	abandoned bool
}

// NewCache returns a Cache holding at most max values (0 = unbounded,
// negative = none). onEvict, when non-nil, is called outside the lock with
// the number of values an insertion evicted.
func NewCache[V any](max int, onEvict func(n int)) *Cache[V] {
	return &Cache[V]{max: max, onEvict: onEvict}
}

// Get returns the retained value for key, marking it most recently used.
func (c *Cache[V]) Get(key string) (v V, ok bool) {
	c.mu.Lock()
	e, ok := c.m[key]
	if ok {
		c.touch(e)
		v = e.val
	}
	c.mu.Unlock()
	return v, ok
}

// Len returns the number of retained values.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Do returns the value for key: the retained one, the outcome of another
// caller's computation in flight, or fn's result, which fn computes under
// ctx. shared reports that the value is not this caller's computation.
//
// A follower stops waiting when its own ctx ends and returns ctx's error.
// When the leader fails because the leader's ctx ended, its followers do
// not inherit that error: they call again and one of them becomes the new
// leader. fn must not call Do on c for its own key.
func (c *Cache[V]) Do(ctx context.Context, key string, fn func(context.Context) (V, error)) (v V, shared bool, err error) {
	for {
		c.mu.Lock()
		if e, ok := c.m[key]; ok {
			c.touch(e)
			v = e.val
			c.mu.Unlock()
			return v, true, nil
		}
		if c.calls == nil {
			c.m = make(map[string]*entry[V])
			c.calls = make(map[string]*call[V])
			c.lru.prev, c.lru.next = &c.lru, &c.lru
		}
		cl, ok := c.calls[key]
		if !ok {
			cl = &call[V]{done: make(chan struct{})}
			c.calls[key] = cl
			c.mu.Unlock()
			v, err = c.lead(ctx, key, cl, fn)
			return v, false, err
		}
		c.mu.Unlock()
		select {
		case <-cl.done:
			if !cl.abandoned {
				return cl.val, true, cl.err
			}
		case <-ctx.Done():
			return v, true, fmt.Errorf("cell: waiting for a shared result: %w", ctx.Err())
		}
	}
}

// lead runs fn as the key's leader, then publishes the outcome to the
// followers and retains a value.
func (c *Cache[V]) lead(ctx context.Context, key string, cl *call[V], fn func(context.Context) (V, error)) (v V, err error) {
	defer func() {
		if p := recover(); p != nil {
			var zero V
			v, err = zero, fmt.Errorf("cell: panic computing %s: %v", key, p)
		}
		cl.val, cl.err = v, err
		cl.abandoned = err != nil && ctx.Err() != nil
		evicted := 0
		c.mu.Lock()
		delete(c.calls, key)
		if err == nil && c.max >= 0 {
			evicted = c.insert(key, v)
		}
		c.mu.Unlock()
		close(cl.done)
		if evicted > 0 && c.onEvict != nil {
			c.onEvict(evicted)
		}
	}()
	return fn(ctx)
}

// insert retains a new value as the most recent and evicts the least
// recent ones beyond the bound. A key being computed has no entry, so
// insert never replaces one.
func (c *Cache[V]) insert(key string, v V) (evicted int) {
	e := &entry[V]{key: key, val: v}
	c.m[key] = e
	c.link(e)
	for c.max > 0 && len(c.m) > c.max {
		old := c.lru.prev
		c.unlink(old)
		delete(c.m, old.key)
		evicted++
	}
	return evicted
}

// touch moves e to the front of the recency list.
func (c *Cache[V]) touch(e *entry[V]) {
	c.unlink(e)
	c.link(e)
}

func (c *Cache[V]) link(e *entry[V]) {
	e.prev, e.next = &c.lru, c.lru.next
	e.prev.next, e.next.prev = e, e
}

func (c *Cache[V]) unlink(e *entry[V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}
