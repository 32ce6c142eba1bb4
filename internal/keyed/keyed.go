// Package keyed holds the keyed once-primitives the daemon, the fleet
// coordinator and the sweep share: Group, a singleflight (concurrent
// callers of a key share one run), and Memo, a bounded once-memo (a
// key's value is built once and kept). The module has no dependencies,
// so these stand in for x/sync/singleflight and a sync.Once map.
package keyed

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Group deduplicates concurrent work by key. The zero value is ready
// to use.
type Group[V any] struct {
	mu    sync.Mutex
	calls map[string]*Call[V]
}

// Call is one key's in-flight run.
type Call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Join returns key's in-flight call, starting one when there is none.
// The caller that starts it is the leader: it must Resolve the key, and
// every other joiner Waits for that outcome.
func (g *Group[V]) Join(key string) (c *Call[V], leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c, false
	}
	if g.calls == nil {
		g.calls = map[string]*Call[V]{}
	}
	c = &Call[V]{done: make(chan struct{})}
	g.calls[key] = c
	return c, true
}

// Resolve publishes the leader's outcome to every waiter on key's call
// and frees the key, so the next Join starts a fresh call.
func (g *Group[V]) Resolve(key string, v V, err error) {
	g.mu.Lock()
	c := g.calls[key]
	delete(g.calls, key)
	g.mu.Unlock()
	if c != nil {
		c.val, c.err = v, err
		close(c.done)
	}
}

// Wait blocks until the call resolves and returns its outcome.
func (c *Call[V]) Wait() (V, error) {
	<-c.done
	return c.val, c.err
}

// Do runs fn once per key among concurrent callers; shared is true for
// callers that received another caller's run. A panicking fn becomes
// an error for every caller: unrecovered, it would leave the followers
// waiting forever and kill the process one frame up.
func (g *Group[V]) Do(key string, fn func() (V, error)) (v V, shared bool, err error) {
	c, leader := g.Join(key)
	if !leader {
		v, err = c.Wait()
		return v, true, err
	}
	defer func() {
		if r := recover(); r != nil {
			var zero V
			v, err = zero, fmt.Errorf("panicked: %v", r)
		}
		g.Resolve(key, v, err)
	}()
	v, err = fn()
	return v, false, err
}

// Memo builds each key's value once and keeps it, error included. The
// zero value is unbounded; with Limit > 0, a new key that would pass
// the bound first drops every entry (values already handed out stay
// valid, and a dropped key is built again on its next Get).
type Memo[K comparable, V any] struct {
	Limit int

	mu sync.Mutex
	m  map[K]*entry[V]
}

type entry[V any] struct {
	once sync.Once
	done atomic.Bool
	val  V
	err  error
}

// Get returns key's value, building it with build on first use;
// concurrent callers of a key wait for its one build. built is true
// for the caller whose build ran.
func (m *Memo[K, V]) Get(key K, build func() (V, error)) (v V, built bool, err error) {
	m.mu.Lock()
	e, ok := m.m[key]
	if !ok {
		if m.m == nil || (m.Limit > 0 && len(m.m) >= m.Limit) {
			m.m = map[K]*entry[V]{}
		}
		e = &entry[V]{}
		m.m[key] = e
	}
	m.mu.Unlock()
	e.once.Do(func() {
		built = true
		defer e.done.Store(true)
		// Stands if build panics: later callers get an error, not a zero value.
		e.err = fmt.Errorf("keyed: build panicked")
		e.val, e.err = build()
	})
	return e.val, built, e.err
}

// Peek returns key's value if it has been built. It never builds,
// never waits on a build in progress and never inserts; ok is false
// when the key has no finished build.
func (m *Memo[K, V]) Peek(key K) (v V, ok bool, err error) {
	m.mu.Lock()
	e := m.m[key]
	m.mu.Unlock()
	if e == nil || !e.done.Load() {
		return v, false, nil
	}
	return e.val, true, e.err
}
