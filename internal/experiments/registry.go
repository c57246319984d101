package experiments

import (
	"fmt"
	"sort"

	"pask/internal/trace"
)

// Options is the uniform knob set every registered experiment accepts.
// Experiments read only what applies to them: a figure sweep honors Models
// and Batches, a fleet experiment honors Quick, a traced run records into
// Trace. Unknown-to-the-experiment fields are simply ignored, so one
// options struct can drive the whole menu.
type Options struct {
	// Quick shrinks the experiment to its CI smoke size.
	Quick bool
	// Trace, when non-nil, receives the run's timeline (experiments that
	// record pick their canonical sub-run, e.g. the first device).
	Trace *trace.Recorder
	// Models restricts the model selection; empty means the experiment's
	// default (all twelve for figure sweeps, the experiment's own subset
	// otherwise).
	Models []string
	// Batches restricts the batch sweep; empty means the experiment's
	// default. Experiments that take a single batch use the first entry.
	Batches []int
}

// Model returns the first selected model, or def when none is selected.
func (o Options) Model(def string) string {
	if len(o.Models) > 0 {
		return o.Models[0]
	}
	return def
}

// Batch returns the first selected batch, or 1 when none is selected.
func (o Options) Batch() int {
	if len(o.Batches) > 0 {
		return o.Batches[0]
	}
	return 1
}

// Result is what a registered experiment hands back: human-readable tables
// in print order, plus an optional machine-readable payload.
type Result struct {
	Tables []*Table `json:"tables,omitempty"`
	Bench  any      `json:"bench,omitempty"`
}

// EnvelopeSchema is the version stamped on every machine-readable result
// envelope; bump it only on breaking changes to the envelope shape.
const EnvelopeSchema = 1

// Envelope is the versioned wrapper around a machine-readable experiment
// result: {"schema": 1, "experiment": "...", "result": {...}}. Both the
// CLI's -out files and the HTTP API's /v1/experiments/{name} responses use
// it, so consumers parse one shape everywhere.
type Envelope struct {
	Schema     int    `json:"schema"`
	Experiment string `json:"experiment"`
	Result     any    `json:"result"`
}

// NewEnvelope wraps an experiment result in the current envelope version.
func NewEnvelope(experiment string, result any) Envelope {
	return Envelope{Schema: EnvelopeSchema, Experiment: experiment, Result: result}
}

// Experiment is one registered entry of the experiment menu.
type Experiment struct {
	// Name is the -exp / URL identifier (unique, stable).
	Name string
	// Description is the one-line menu text.
	Description string
	// InAll marks paper-figure experiments included in the -exp all sweep,
	// in registration order.
	InAll bool
	// Bench marks experiments with a machine-readable payload worth
	// persisting; the CLI defaults their -out to DefaultOut().
	Bench bool
	// Run executes the experiment with the uniform options.
	Run func(Options) (*Result, error)
}

// DefaultOut is the conventional bench-output filename, BENCH_<name>.json.
func (e *Experiment) DefaultOut() string { return "BENCH_" + e.Name + ".json" }

var (
	registry []*Experiment
	byName   = make(map[string]*Experiment)
)

// Register adds an experiment to the menu. It panics on an empty name, a
// duplicate, or a nil runner — registration happens in package init, where
// a broken menu should fail loudly at startup, not at dispatch.
func Register(e Experiment) {
	if e.Name == "" || e.Run == nil {
		panic("experiments: Register needs a name and a runner")
	}
	if _, dup := byName[e.Name]; dup {
		panic(fmt.Sprintf("experiments: duplicate registration %q", e.Name))
	}
	cp := e
	registry = append(registry, &cp)
	byName[e.Name] = &cp
}

// Lookup resolves a registered experiment by name.
func Lookup(name string) (*Experiment, bool) {
	e, ok := byName[name]
	return e, ok
}

// All returns the menu in registration order (the order -exp all runs the
// InAll subset in).
func All() []*Experiment {
	out := make([]*Experiment, len(registry))
	copy(out, registry)
	return out
}

// Names returns every registered name, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for _, e := range registry {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}
