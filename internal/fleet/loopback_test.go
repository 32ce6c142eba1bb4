package fleet

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
)

// refused reports whether nothing accepts connections at url any more.
func refused(url string) bool {
	conn, err := net.DialTimeout("tcp", strings.TrimPrefix(url, "http://"), time.Second)
	if err == nil {
		conn.Close()
	}
	return err != nil
}

// TestLoopbackCloseStopsServersBeforeCleanups: after Close every worker
// and the coordinator refuse connections, and each hook's cleanup ran
// only once all of them already did.
func TestLoopbackCloseStopsServersBeforeCleanups(t *testing.T) {
	var (
		mu      sync.Mutex
		cleaned []int
		lb      *Loopback
	)
	hook := func(i int, url string, opt *service.SchedulerOptions) (func(), error) {
		if opt.Workers != 1 || opt.Donors == nil {
			t.Errorf("worker %d: hook got slots %d, exchange %v", i, opt.Workers, opt.Donors)
		}
		return func() {
			mu.Lock()
			defer mu.Unlock()
			cleaned = append(cleaned, i)
			for _, u := range append([]string{lb.URL}, lb.Workers...) {
				if !refused(u) {
					t.Errorf("worker %d's cleanup ran while %s still accepted connections", i, u)
				}
			}
		}, nil
	}
	lb, err := NewLoopback(2, 1, Options{PingInterval: time.Hour}, hook)
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	if err := (&service.Client{BaseURL: lb.URL}).AwaitReady(t.Context()); err != nil {
		t.Fatalf("fleet never became ready: %v", err)
	}
	lb.Close()
	for _, u := range append([]string{lb.URL}, lb.Workers...) {
		if !refused(u) {
			t.Errorf("%s still accepts connections after Close", u)
		}
	}
	if len(cleaned) != 2 {
		t.Errorf("cleanups ran for workers %v, want both", cleaned)
	}
}

// TestLoopbackHookFailureLeaksNoServer: a hook failing on worker 1
// fails the boot, and worker 0, already serving by then, is closed with
// its cleanup run.
func TestLoopbackHookFailureLeaksNoServer(t *testing.T) {
	var url0 string
	cleaned := false
	hook := func(i int, url string, opt *service.SchedulerOptions) (func(), error) {
		if i == 1 {
			return nil, errors.New("disk full")
		}
		url0 = url
		return func() { cleaned = true }, nil
	}
	if _, err := NewLoopback(2, 1, Options{PingInterval: time.Hour}, hook); err == nil {
		t.Fatal("NewLoopback succeeded despite a failing hook")
	}
	if !refused(url0) {
		t.Errorf("worker 0 (%s) still accepts connections after the failed boot", url0)
	}
	if !cleaned {
		t.Error("worker 0's cleanup never ran")
	}
}
