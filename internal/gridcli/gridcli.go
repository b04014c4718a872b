// Package gridcli is the shared command-line surface of the
// experiment CLIs: cmd/railgrid (local execution) and cmd/railclient
// (remote execution against a raild daemon) register the same
// dimension flags and build the same wire-encodable scenario.Spec from
// them, so a railgrid invocation and its railclient twin differ only
// in where the cells simulate. The registry-driven one-shot CLIs
// (railcost, railwindows) share their run loop here too.
package gridcli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"photonrail"
	"photonrail/internal/model"
	"photonrail/internal/scenario"
	"photonrail/internal/topo"
)

// WithTimeout returns a context bounded by d, derived from parent;
// d <= 0 means no deadline (the returned cancel func is still
// non-nil). The shared -timeout plumbing of every experiment CLI. The
// parent is the CLI main's signal context, so Ctrl-C cancels a run
// whether or not a -timeout was set — manufacturing a root here was
// exactly the detachment raillint's ctxbg now bans.
func WithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(parent, d)
	}
	return context.WithCancel(parent)
}

// RunExperiments looks up and runs each named registry experiment on
// the engine with the same params, rendering each result to w (CSV
// when csv is set) — the shared body of the one-shot registry CLIs
// (railcost, railwindows).
func RunExperiments(ctx context.Context, en *photonrail.Engine, names []string, p photonrail.Params, csv bool, w io.Writer) error {
	for _, name := range names {
		e, ok := photonrail.Lookup(name)
		if !ok {
			return fmt.Errorf("experiment %q not registered", name)
		}
		res, err := e.Run(ctx, en, p)
		if err != nil {
			return err
		}
		if csv {
			err = res.RenderCSV(w)
		} else {
			err = res.RenderText(w)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Dimensions holds the registered dimension flag values.
type Dimensions struct {
	gridName  *string
	models    *string
	gpus      *string
	fabrics   *string
	latencies *string
	par       *string
	schedules *string
	jitters   *string
	eager     *string
	nic       *string
	mb        *int
	mbs       *int
	iters     *int
}

// DefaultGridName sets the -grid flag's value when the user did not
// supply one. railclient's `-exp <built-in grid>` path uses it so the
// dimension flags overlay that grid's axes — exactly what
// `-grid <name>` would do — instead of the paper-default custom grid.
func (d *Dimensions) DefaultGridName(name string) {
	if *d.gridName == "" {
		*d.gridName = name
	}
}

// Register installs the grid dimension flags on fs and returns their
// holder; call Spec after fs.Parse.
func Register(fs *flag.FlagSet) *Dimensions {
	return &Dimensions{
		gridName:  fs.String("grid", "", "built-in grid name (see -list); dimension flags override its axes"),
		models:    fs.String("models", "", "comma-separated model presets (e.g. Llama3-8B,Mixtral-8x7B)"),
		gpus:      fs.String("gpus", "", "comma-separated GPU presets (e.g. A100,H100)"),
		fabrics:   fs.String("fabrics", "", "comma-separated fabric kinds: electrical,photonic,provisioned,static"),
		latencies: fs.String("latencies", "", "comma-separated reconfiguration latencies in ms"),
		par:       fs.String("par", "", "comma-separated parallelisms TP:DP:PP[:CP[:EP]] (e.g. 4:2:2,4:1:2:2)"),
		schedules: fs.String("schedules", "", "comma-separated pipeline schedules: 1F1B,GPipe"),
		jitters:   fs.String("jitters", "", "comma-separated compute jitter fractions (e.g. 0,0.03)"),
		eager:     fs.String("eager", "", "comma-separated EagerRS values: false,true"),
		nic:       fs.String("nic", "", "NIC port split: 1x400, 2x200, or 4x100"),
		mb:        fs.Int("mb", 0, "microbatches per iteration (0 = grid default)"),
		mbs:       fs.Int("mbs", 0, "microbatch size (0 = grid default)"),
		iters:     fs.Int("iters", 0, "training iterations per cell (0 = grid default)"),
	}
}

// Spec builds the wire-encodable grid spec the flags describe — a named
// grid's axes when -grid was given (the zero grid's paper defaults
// otherwise), overlaid with every non-empty dimension flag — along with
// its resolved, validated Grid. Unknown names and malformed dimensions
// fail here, not at execution time; railgrid runs the returned grid
// locally, railclient sends the spec to a daemon.
func (d *Dimensions) Spec() (scenario.Spec, scenario.Grid, error) {
	var spec scenario.Spec
	if *d.gridName != "" {
		mk, ok := scenario.Grids()[*d.gridName]
		if !ok {
			return scenario.Spec{}, scenario.Grid{}, fmt.Errorf("unknown grid %q (built-ins: %s)", *d.gridName, strings.Join(GridNames(), ", "))
		}
		spec = scenario.SpecOf(mk())
	}
	if *d.models != "" {
		spec.Models = splitList(*d.models)
	}
	if *d.gpus != "" {
		spec.GPUs = splitList(*d.gpus)
	}
	if *d.fabrics != "" {
		spec.Fabrics = splitList(*d.fabrics)
	}
	if *d.latencies != "" {
		spec.LatenciesMS = nil
		for _, s := range splitList(*d.latencies) {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return scenario.Spec{}, scenario.Grid{}, fmt.Errorf("bad latency %q: %w", s, err)
			}
			spec.LatenciesMS = append(spec.LatenciesMS, v)
		}
	}
	if *d.par != "" {
		spec.Parallelisms = nil
		for _, s := range splitList(*d.par) {
			p, err := ParseParallelism(s)
			if err != nil {
				return scenario.Spec{}, scenario.Grid{}, err
			}
			spec.Parallelisms = append(spec.Parallelisms, p)
		}
	}
	if *d.schedules != "" {
		spec.Schedules = splitList(*d.schedules)
	}
	if *d.jitters != "" {
		spec.JitterFracs = nil
		for _, s := range splitList(*d.jitters) {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return scenario.Spec{}, scenario.Grid{}, fmt.Errorf("bad jitter %q: %w", s, err)
			}
			spec.JitterFracs = append(spec.JitterFracs, v)
		}
	}
	if *d.eager != "" {
		spec.EagerRS = nil
		for _, s := range splitList(*d.eager) {
			v, err := strconv.ParseBool(s)
			if err != nil {
				return scenario.Spec{}, scenario.Grid{}, fmt.Errorf("bad eager value %q: %w", s, err)
			}
			spec.EagerRS = append(spec.EagerRS, v)
		}
	}
	if *d.nic != "" {
		var pc topo.PortConfig
		switch *d.nic {
		case "1x400":
			pc = topo.OnePort400G
		case "2x200":
			pc = topo.TwoPort200G
		case "4x100":
			pc = topo.FourPort100G
		default:
			return scenario.Spec{}, scenario.Grid{}, fmt.Errorf("unknown NIC split %q (want 1x400, 2x200, 4x100)", *d.nic)
		}
		spec.NICPorts = pc.Ports
		spec.NICPerPortBps = int64(pc.PerPort)
	}
	if *d.mb > 0 {
		spec.Microbatches = *d.mb
	}
	if *d.mbs > 0 {
		spec.MicrobatchSize = *d.mbs
	}
	if *d.iters > 0 {
		spec.Iterations = *d.iters
	}
	if spec.Name == "" {
		spec.Name = "custom"
	}
	// Fail fast on unknown names and malformed grids: the daemon would
	// reject them too, but a CLI should not need a round trip to say so.
	g, err := spec.Resolve()
	if err != nil {
		return scenario.Spec{}, scenario.Grid{}, err
	}
	if err := g.Validate(); err != nil {
		return scenario.Spec{}, scenario.Grid{}, err
	}
	return spec, g, nil
}

// SweepParams maps the dimension flags a non-grid experiment honors
// onto registry params: -latencies becomes LatenciesMS and -iters
// becomes Iterations (railclient's `-exp fig8 -latencies 0,10
// -iters 1` must match its local `railsweep` twin instead of silently
// running paper defaults). Flags with no non-grid meaning are left at
// their registry defaults.
func (d *Dimensions) SweepParams() (photonrail.Params, error) {
	p := photonrail.Params{Iterations: *d.iters}
	if *d.latencies != "" {
		for _, s := range splitList(*d.latencies) {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return photonrail.Params{}, fmt.Errorf("bad latency %q: %w", s, err)
			}
			p.LatenciesMS = append(p.LatenciesMS, v)
		}
	}
	return p, nil
}

// ParseParallelism parses TP:DP:PP[:CP[:EP]].
func ParseParallelism(s string) (scenario.Parallelism, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 3 || len(parts) > 5 {
		return scenario.Parallelism{}, fmt.Errorf("bad parallelism %q: want TP:DP:PP[:CP[:EP]]", s)
	}
	vals := make([]int, 5)
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return scenario.Parallelism{}, fmt.Errorf("bad parallelism %q: %w", s, err)
		}
		vals[i] = v
	}
	return scenario.Parallelism{TP: vals[0], DP: vals[1], PP: vals[2], CP: vals[3], EP: vals[4]}, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// CheckFormat validates a -format value.
func CheckFormat(format string) error {
	switch format {
	case "table", "csv", "json":
		return nil
	}
	return fmt.Errorf("unknown format %q (want table, csv, json)", format)
}

// GridNames lists the built-in grids, sorted.
func GridNames() []string {
	var names []string
	for name := range scenario.Grids() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// PrintCatalog lists the built-in grids and the preset spellings every
// dimension flag accepts.
func PrintCatalog(w io.Writer) {
	fmt.Fprintf(w, "built-in grids: %s\n", strings.Join(GridNames(), ", "))
	var ms, gs []string
	for _, m := range model.Presets() {
		ms = append(ms, m.Name)
	}
	for _, g := range model.GPUPresets() {
		gs = append(gs, g.Name)
	}
	fmt.Fprintf(w, "model presets:  %s\n", strings.Join(ms, ", "))
	fmt.Fprintf(w, "gpu presets:    %s\n", strings.Join(gs, ", "))
	fmt.Fprintf(w, "fabric kinds:   electrical, photonic, provisioned, static\n")
	fmt.Fprintf(w, "schedules:      1F1B, GPipe\n")
	fmt.Fprintf(w, "nic splits:     1x400, 2x200, 4x100\n")
}
