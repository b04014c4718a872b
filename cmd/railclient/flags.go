package main

// The grid dimension flags: the thirteen of them describe a grid as a
// wire-encodable scenario.Spec, and -latencies/-iters double as a
// sweep experiment's params, so a request is the same whether it runs
// in-process or on a daemon.

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

// withTimeout returns a context bounded by d, derived from parent;
// d <= 0 means no deadline (the returned cancel func is still
// non-nil). The parent is main's signal context, so Ctrl-C cancels a
// run whether or not a -timeout was set — manufacturing a root here was
// exactly the detachment raillint's ctxbg bans.
func withTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(parent, d)
	}
	return context.WithCancel(parent)
}

// dimensions holds the registered dimension flag values.
type dimensions struct {
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

// registerDims installs the grid dimension flags on fs and returns
// their holder; call spec after fs.Parse.
func registerDims(fs *flag.FlagSet) *dimensions {
	return &dimensions{
		gridName:  fs.String("grid", "", "built-in grid name (see -list); dimension flags override its axes"),
		models:    fs.String("models", "", "comma-separated model presets (e.g. Llama3-8B,Mixtral-8x7B)"),
		gpus:      fs.String("gpus", "", "comma-separated GPU presets (e.g. A100,H100)"),
		fabrics:   fs.String("fabrics", "", "comma-separated fabric kinds: electrical,photonic,provisioned,static"),
		latencies: fs.String("latencies", "", "comma-separated reconfiguration latencies in ms (grids and fig8)"),
		par:       fs.String("par", "", "comma-separated parallelisms TP:DP:PP[:CP[:EP]] (e.g. 4:2:2,4:1:2:2)"),
		schedules: fs.String("schedules", "", "comma-separated pipeline schedules: 1F1B,GPipe"),
		jitters:   fs.String("jitters", "", "comma-separated compute jitter fractions (e.g. 0,0.03)"),
		eager:     fs.String("eager", "", "comma-separated EagerRS values: false,true"),
		nic:       fs.String("nic", "", "NIC port split: 1x400, 2x200, or 4x100"),
		mb:        fs.Int("mb", 0, "microbatches per iteration (0 = grid default)"),
		mbs:       fs.Int("mbs", 0, "microbatch size (0 = grid default)"),
		iters:     fs.Int("iters", 0, "training iterations per grid cell or fig8 simulation (0 = default)"),
	}
}

// spec builds the wire-encodable grid spec the flags describe — the
// -grid flag's built-in axes, else those of defaultGrid (a built-in
// grid experiment's own name; "" for the paper-default custom grid),
// overlaid with every non-empty dimension flag. Unknown names and
// malformed dimensions fail here, not at execution time.
func (d *dimensions) spec(defaultGrid string) (scenario.Spec, error) {
	var spec scenario.Spec
	name := *d.gridName
	if name == "" {
		name = defaultGrid
	}
	if name != "" {
		mk, ok := scenario.Grids()[name]
		if !ok {
			return scenario.Spec{}, fmt.Errorf("unknown grid %q (built-ins: %s)", name, strings.Join(gridNames(), ", "))
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
				return scenario.Spec{}, fmt.Errorf("bad latency %q: %w", s, err)
			}
			spec.LatenciesMS = append(spec.LatenciesMS, v)
		}
	}
	if *d.par != "" {
		spec.Parallelisms = nil
		for _, s := range splitList(*d.par) {
			p, err := parseParallelism(s)
			if err != nil {
				return scenario.Spec{}, err
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
				return scenario.Spec{}, fmt.Errorf("bad jitter %q: %w", s, err)
			}
			spec.JitterFracs = append(spec.JitterFracs, v)
		}
	}
	if *d.eager != "" {
		spec.EagerRS = nil
		for _, s := range splitList(*d.eager) {
			v, err := strconv.ParseBool(s)
			if err != nil {
				return scenario.Spec{}, fmt.Errorf("bad eager value %q: %w", s, err)
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
			return scenario.Spec{}, fmt.Errorf("unknown NIC split %q (want 1x400, 2x200, 4x100)", *d.nic)
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
	// Fail fast on unknown names and malformed grids: a daemon would
	// reject them too, but a CLI should not need a round trip to say so.
	g, err := spec.Resolve()
	if err != nil {
		return scenario.Spec{}, err
	}
	if err := g.Validate(); err != nil {
		return scenario.Spec{}, err
	}
	return spec, nil
}

// sweepParams maps the dimension flags a non-grid experiment honors
// onto registry params: -latencies becomes LatenciesMS and -iters
// becomes Iterations (`-exp fig8 -latencies 0,10 -iters 1` runs that
// sweep, not the paper defaults). Flags with no non-grid meaning are
// left at their registry defaults.
func (d *dimensions) sweepParams() (photonrail.Params, error) {
	p := photonrail.Params{Iterations: *d.iters}
	if *d.latencies != "" {
		for _, s := range splitList(*d.latencies) {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return photonrail.Params{}, fmt.Errorf("bad latency %q: %w", s, err)
			}
			if v < 0 {
				return photonrail.Params{}, fmt.Errorf("negative latency %v", v)
			}
			p.LatenciesMS = append(p.LatenciesMS, v)
		}
	}
	return p, nil
}

// parseParallelism parses TP:DP:PP[:CP[:EP]].
func parseParallelism(s string) (scenario.Parallelism, error) {
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

// checkFormat validates a -format value.
func checkFormat(format string) error {
	switch format {
	case "table", "csv", "json":
		return nil
	}
	return fmt.Errorf("unknown format %q (want table, csv, json)", format)
}

// gridNames lists the built-in grids, sorted.
func gridNames() []string {
	var names []string
	for name := range scenario.Grids() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// printCatalog lists the built-in grids and the preset spellings every
// dimension flag accepts.
func printCatalog(w io.Writer) {
	fmt.Fprintf(w, "built-in grids: %s\n", strings.Join(gridNames(), ", "))
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
