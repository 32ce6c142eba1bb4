package fleet

import (
	"net"
	"net/http"
	"sync"

	"repro/internal/service"
)

// Loopback is an in-process fleet on loopback HTTP: n schedulers wired
// as a fleet (one canonical peer list, a donor exchange each) behind a
// coordinator. The load generator, its chaos soak, examples/fleet and
// the fleet tests all stand their fleets up with it.
type Loopback struct {
	// URL is the coordinator's base URL.
	URL string
	// Workers lists the workers' base URLs: the fleet's peer list.
	Workers []string
	// Schedulers holds each worker's scheduler, in Workers order.
	Schedulers []*service.Scheduler
	// Coord is the coordinator serving URL.
	Coord *Coordinator

	servers  []*http.Server // the workers', then the coordinator's
	wg       sync.WaitGroup
	cleanups []func()
}

// WorkerHook customises worker i, which will serve at url, before its
// scheduler is built. opt arrives with the slots and the donor exchange
// set; the hook may add a cache, a journal or a donor transport. Its
// cleanup (nil for none) runs at Close after every server has stopped,
// and also when the hook itself fails.
type WorkerHook func(i int, url string, opt *service.SchedulerOptions) (cleanup func(), err error)

// NewLoopback boots n workers with slots simulation slots each, and a
// coordinator built from opt with Workers filled in. hook may be nil.
func NewLoopback(n, slots int, opt Options, hook WorkerHook) (*Loopback, error) {
	l := &Loopback{}
	lns := make([]net.Listener, 0, n+1)
	fail := func(err error) (*Loopback, error) {
		for _, ln := range lns {
			ln.Close() // the ones not yet served; a served one closes twice, harmlessly
		}
		l.Close()
		return nil, err
	}
	for range n + 1 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		lns = append(lns, ln)
		l.Workers = append(l.Workers, "http://"+ln.Addr().String())
	}
	l.URL, l.Workers = l.Workers[n], l.Workers[:n] // the last listener is the coordinator's
	for i := range n {
		so := service.SchedulerOptions{Workers: slots, Donors: service.NewDonorExchange(l.Workers[i], l.Workers)}
		if hook != nil {
			cleanup, err := hook(i, l.Workers[i], &so)
			if cleanup != nil {
				l.cleanups = append(l.cleanups, cleanup)
			}
			if err != nil {
				return fail(err)
			}
		}
		s := service.NewScheduler(so)
		l.Schedulers = append(l.Schedulers, s)
		l.serve(lns[i], service.NewHandler(s))
	}
	opt.Workers = l.Workers
	c, err := New(opt)
	if err != nil {
		return fail(err)
	}
	l.Coord = c
	l.serve(lns[n], NewHandler(c))
	return l, nil
}

func (l *Loopback) serve(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h}
	l.servers = append(l.servers, srv)
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		srv.Serve(ln) // returns once Kill or Close closes srv
	}()
}

// Kill closes worker i's server and severs its open connections, event
// streams included: the worker dies mid-batch as far as the coordinator
// can tell.
func (l *Loopback) Kill(i int) { l.servers[i].Close() }

// Close stops the fleet: every server and the coordinator's pinger
// close, every serve goroutine returns, and only then do the hooks'
// cleanups run, last hook first.
func (l *Loopback) Close() {
	for _, s := range l.servers {
		s.Close()
	}
	if l.Coord != nil {
		l.Coord.Close()
	}
	l.wg.Wait()
	for i := len(l.cleanups) - 1; i >= 0; i-- {
		l.cleanups[i]()
	}
}
