package keyed

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDoRunsOnce: 32 concurrent callers of one key run fn once, and all
// of them see its value.
func TestDoRunsOnce(t *testing.T) {
	var g Group[int]
	var runs, entered atomic.Int32
	const n = 32
	var wg sync.WaitGroup
	vals := make([]int, n)
	shared := make([]bool, n)
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			entered.Add(1)
			v, s, err := g.Do("k", func() (int, error) {
				runs.Add(1)
				// Hold the flight open until every caller is on its way in.
				for entered.Load() < n {
					time.Sleep(time.Millisecond)
				}
				time.Sleep(50 * time.Millisecond)
				return 7, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i], shared[i] = v, s
		}()
	}
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	leaders := 0
	for i := range n {
		if vals[i] != 7 {
			t.Errorf("caller %d got %d, want 7", i, vals[i])
		}
		if !shared[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("%d callers ran fn themselves, want 1", leaders)
	}
	// The key is free once resolved: the next Do runs afresh.
	if _, s, _ := g.Do("k", func() (int, error) { return 8, nil }); s {
		t.Error("Do after resolution shared a finished run")
	}
}

// TestDoPanicReleasesFollowers: a panicking fn becomes an error for the
// leader and for every follower parked on its flight, and the panic does
// not escape. (Do's followers are exactly Join plus Wait; joining
// directly keeps them from racing the leader's resolution.)
func TestDoPanicReleasesFollowers(t *testing.T) {
	var g Group[int]
	inside := make(chan struct{})
	release := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := g.Do("k", func() (int, error) {
			close(inside)
			<-release
			panic("allocator blew up")
		})
		leaderErr <- err
	}()
	<-inside
	const n = 8
	errs := make(chan error, n)
	for range n {
		c, leader := g.Join("k")
		if leader {
			t.Fatal("a follower became the leader while the flight was open")
		}
		go func() { _, err := c.Wait(); errs <- err }()
	}
	close(release)
	if err := <-leaderErr; err == nil || !strings.Contains(err.Error(), "panicked: allocator blew up") {
		t.Fatalf("leader error %v, want the panic", err)
	}
	for range n {
		if err := <-errs; err == nil || !strings.Contains(err.Error(), "allocator blew up") {
			t.Errorf("follower error %v, want the panic", err)
		}
	}
}

// TestJoinResolveHandsValueToWaiters: the leader resolves from outside
// any Do, and every waiter gets its value.
func TestJoinResolveHandsValueToWaiters(t *testing.T) {
	var g Group[string]
	if _, leader := g.Join("fp"); !leader {
		t.Fatal("first Join was not the leader")
	}
	const n = 16
	got := make(chan string, n)
	for range n {
		c, leader := g.Join("fp")
		if leader {
			t.Fatal("second Join became a leader")
		}
		go func() {
			v, err := c.Wait()
			if err != nil {
				t.Error(err)
			}
			got <- v
		}()
	}
	g.Resolve("fp", "bytes", nil)
	for range n {
		if v := <-got; v != "bytes" {
			t.Errorf("waiter got %q, want %q", v, "bytes")
		}
	}
	if _, leader := g.Join("fp"); !leader {
		t.Error("Join after Resolve did not start a fresh call")
	}
}

// TestMemoBuildsOnce: concurrent Gets of one key build once; every
// caller sees the value, and exactly one reports the build.
func TestMemoBuildsOnce(t *testing.T) {
	var m Memo[string, int]
	var builds atomic.Int32
	const n = 32
	var wg sync.WaitGroup
	var built atomic.Int32
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, b, err := m.Get("k", func() (int, error) {
				builds.Add(1)
				time.Sleep(10 * time.Millisecond)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Get = %d, %v; want 42, nil", v, err)
			}
			if b {
				built.Add(1)
			}
		}()
	}
	wg.Wait()
	if builds.Load() != 1 || built.Load() != 1 {
		t.Errorf("%d builds, %d callers reported building; want 1 and 1", builds.Load(), built.Load())
	}
	// Errors are kept like values.
	fail := errors.New("unwarmable")
	for i := range 2 {
		if _, _, err := m.Get("bad", func() (int, error) { return 0, fail }); err != fail {
			t.Errorf("Get %d of a failed key = %v, want %v", i, err, fail)
		}
	}
}

// TestMemoBoundDropsEntries: a new key that would pass the bound drops
// every entry, so earlier keys build again.
func TestMemoBoundDropsEntries(t *testing.T) {
	m := Memo[int, string]{Limit: 3}
	builds := 0
	get := func(k int) {
		m.Get(k, func() (string, error) { builds++; return fmt.Sprint(k), nil })
	}
	for k := range 3 {
		get(k)
	}
	get(0) // within the bound: kept
	if builds != 3 {
		t.Fatalf("%d builds for 3 keys and a repeat, want 3", builds)
	}
	get(3) // passes the bound: everything drops, 3 is built
	get(0) // rebuilt
	if builds != 5 {
		t.Errorf("%d builds after passing the bound, want 5", builds)
	}
	if _, ok, _ := m.Peek(1); ok {
		t.Error("key 1 survived the drop")
	}
}

// TestMemoPeek: Peek never builds and never inserts, and sees a value
// only once its build finished.
func TestMemoPeek(t *testing.T) {
	m := Memo[string, int]{Limit: 1}
	for range 3 {
		if _, ok, _ := m.Peek("absent"); ok {
			t.Fatal("Peek found a key nobody built")
		}
	}
	v, built, _ := m.Get("k", func() (int, error) { return 5, nil })
	if v != 5 || !built {
		t.Fatalf("Get = %d built=%v, want 5 built", v, built)
	}
	// Peeks at other keys would have flushed a bound of 1 had they
	// inserted anything.
	m.Peek("x")
	m.Peek("y")
	if v, ok, err := m.Peek("k"); !ok || v != 5 || err != nil {
		t.Errorf("Peek(k) = %d, %v, %v; want 5, true, nil", v, ok, err)
	}
	if _, built, _ := m.Get("k", func() (int, error) { return 6, nil }); built {
		t.Error("Peeks made Get rebuild k")
	}

	// A build in progress is not visible, and Peek does not wait for it.
	started, release := make(chan struct{}), make(chan struct{})
	go m.Get("slow", func() (int, error) { close(started); <-release; return 1, nil })
	<-started
	if _, ok, _ := m.Peek("slow"); ok {
		t.Error("Peek saw an unfinished build")
	}
	close(release)
}
