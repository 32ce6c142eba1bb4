// Package service turns the simulator into a simulation-as-a-service
// subsystem layered on internal/sim: clients submit batches of
// declarative simulation points, a shared bounded worker pool executes
// the cache misses, and a content-addressed result cache returns every
// previously computed point without simulation.
//
// The pieces, bottom to top:
//
//   - Cache: a two-tier (in-memory LRU + on-disk JSON) store keyed by
//     sim.Fingerprint content addresses.
//   - Front: the batch front end a Scheduler and a fleet coordinator
//     share (validation, queue-bound admission, batch ids that do not
//     repeat across restarts, bounded retention, drain, readiness).
//   - Scheduler: splits submitted batches into cache hits and misses,
//     runs misses through the simulator on one bounded pool shared by
//     all in-flight batches (with singleflight dedupe of identical
//     points, and once-memos of traces and warm donors, from
//     internal/keyed), and publishes per-point completion events.
//   - NewHandler / Client: the HTTP daemon surface (cmd/ooosimd) and
//     the Go client used by cmd/experiments -server. A batch whose
//     every point is a cache hit is finished at admission: its 202
//     submit response carries every result, so Client.Run answers it
//     from that one request and opens the event stream only for
//     batches with work left.
//
// Batches are declarative: a Job carries a config.Config and a
// trace.Recipe, never a materialised trace, so a cache hit skips both
// the simulation and the workload generation. Recipes are bounded
// (trace.MaxRecipeInsts), which caps the per-point budget a remote
// batch can request.
//
// Submitted points are not cancellable: once a batch is accepted its
// misses run to completion even if every client disconnects. That is
// deliberate — simulation is deterministic and results land in the
// content-addressed cache, so finished work is never wasted; it
// answers the next identical submission for free.
package service

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Job is one simulation point in wire form: the declarative equivalent
// of a sim.RunSpec, with the trace replaced by its generation recipe.
type Job struct {
	// Name labels the point in progress events; defaults to the
	// recipe's workload name (the kernel, or the program name for
	// program recipes).
	Name string `json:"name,omitempty"`
	// Config is the processor configuration.
	Config config.Config `json:"config"`
	// Trace is the workload's generation recipe.
	Trace trace.Recipe `json:"trace"`
	// Insts is the committed-instruction target (0 runs the full
	// trace).
	Insts uint64 `json:"insts,omitempty"`
	// CollectOccupancy enables the full occupancy distribution.
	CollectOccupancy bool `json:"collect_occupancy,omitempty"`
	// Sample requests SMARTS sampled simulation over the recipe's
	// segment stream (see sim.RunSpec.Sample). omitzero keeps
	// non-sampled wire forms byte-identical to the pre-sampling ones.
	Sample trace.SampleSpec `json:"sample,omitzero"`
}

// Validate reports an unusable job. Sampled jobs validate under the
// streamed recipe rules (the materialisation cap does not apply — only
// a window is ever in memory) and must carry an instruction budget,
// since a synthetic stream has no natural end.
func (j Job) Validate() error {
	if err := j.Config.Validate(); err != nil {
		return err
	}
	if j.Sample.Enabled() {
		if err := j.Sample.Validate(); err != nil {
			return err
		}
		if j.CollectOccupancy {
			return fmt.Errorf("service: job %s: occupancy collection cannot be sampled", j.label())
		}
		if j.Insts == 0 {
			return fmt.Errorf("service: job %s: sampled jobs need an instruction budget", j.label())
		}
		return j.Trace.ValidateStreamed()
	}
	return j.Trace.Validate()
}

// Fingerprint returns the job's content address (see sim.Fingerprint).
// Sampled jobs extend the canonical trace string with the sample spec
// (trace.PointString), so they occupy keys disjoint from every
// full-detail point while non-sampled jobs hash unchanged bytes.
func (j Job) Fingerprint() (string, error) {
	return sim.Fingerprint(j.Config, trace.PointString(j.Trace, j.Sample), j.Insts, j.CollectOccupancy)
}

// label names the job in events and errors.
func (j Job) label() string {
	if j.Name != "" {
		return j.Name
	}
	return j.Trace.WorkloadName()
}

// JobFromSpec converts an in-process sweep spec to wire form. It fails
// for specs whose trace carries no generation recipe (custom trace.Mix
// weights), which cannot be described remotely.
func JobFromSpec(spec sim.RunSpec) (Job, error) {
	if spec.Trace == nil {
		return Job{}, fmt.Errorf("service: spec %q has no trace", spec.Name)
	}
	r, ok := spec.Trace.Recipe()
	if !ok {
		return Job{}, fmt.Errorf("service: spec %q: trace %q has no generation recipe, cannot run remotely",
			spec.Name, spec.Trace.Name())
	}
	return Job{
		Name:             spec.Name,
		Config:           spec.Config,
		Trace:            r,
		Insts:            spec.Insts,
		CollectOccupancy: spec.CollectOccupancy,
		Sample:           spec.Sample,
	}, nil
}
