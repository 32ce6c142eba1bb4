package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/service"
)

// loopbackFleet is an in-process fleet on loopback HTTP: a coordinator in
// front of `workers` schedulers with one simulation slot each, donor
// shipping wired between them, as cmd/ooosimload -inprocess boots it.
type loopbackFleet struct {
	coord   string
	workers []string
	servers []*http.Server
	c       *fleet.Coordinator
	wg      sync.WaitGroup
}

func bootFleet() (*loopbackFleet, error) {
	f := &loopbackFleet{}
	var lns []net.Listener
	for range workers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
		f.workers = append(f.workers, "http://"+ln.Addr().String())
	}
	for i, ln := range lns {
		sched := service.NewScheduler(service.SchedulerOptions{
			Workers: 1,
			Donors:  service.NewDonorExchange(f.workers[i], f.workers),
		})
		f.serve(ln, service.NewHandler(sched))
	}
	c, err := fleet.New(fleet.Options{Workers: f.workers, PingInterval: 500 * time.Millisecond})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.c = c
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.stop()
		return nil, err
	}
	f.coord = "http://" + ln.Addr().String()
	f.serve(ln, fleet.NewHandler(c))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := (&service.Client{BaseURL: f.coord}).AwaitReady(ctx); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func (f *loopbackFleet) serve(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		srv.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
}

// stop closes every server and the coordinator's pinger and waits for
// the serving goroutines to end.
func (f *loopbackFleet) stop() {
	for _, s := range f.servers {
		s.Close()
	}
	if f.c != nil {
		f.c.Close()
	}
	f.wg.Wait()
}

// fleetScrape is one reading of the fleet's /metrics counters: each
// worker's, and the coordinator's.
type fleetScrape struct {
	workers []map[string]float64
	coord   map[string]float64
}

func (f *loopbackFleet) scrape() (*fleetScrape, error) {
	s := &fleetScrape{}
	for _, u := range f.workers {
		m, err := scrapeMetrics(u)
		if err != nil {
			return nil, err
		}
		s.workers = append(s.workers, m)
	}
	m, err := scrapeMetrics(f.coord)
	if err != nil {
		return nil, err
	}
	s.coord = m
	return s, nil
}

// since returns the counters' movement from before to s.
func (s *fleetScrape) since(before *fleetScrape) *fleetScrape {
	sub := func(a, b map[string]float64) map[string]float64 {
		d := map[string]float64{}
		for k, v := range a {
			d[k] = v - b[k]
		}
		return d
	}
	out := &fleetScrape{coord: sub(s.coord, before.coord)}
	for i, w := range s.workers {
		out.workers = append(out.workers, sub(w, before.workers[i]))
	}
	return out
}

// sum adds one metric over the workers.
func (s *fleetScrape) sum(name string) float64 {
	t := 0.0
	for _, w := range s.workers {
		t += w[name]
	}
	return t
}

// scrapeMetrics reads a Prometheus text exposition into series -> value.
func scrapeMetrics(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: HTTP %d", base, resp.StatusCode)
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %q: %w", base, line, err)
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}
