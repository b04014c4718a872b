package photonrail

import (
	"photonrail/internal/exp"
	"photonrail/internal/model"
	"photonrail/internal/topo"
)

// appendKey writes every field of the workload, nested model.Spec,
// model.GPU and topo.PortConfig fields included, in declaration order.
// A field added to any of them must be added here too; the key
// completeness test fails until it is.
func (w Workload) appendKey(e *exp.KeyEncoder) {
	appendModelKey(e, w.Model)
	appendGPUKey(e, w.GPU)
	e.Int(w.NumNodes)
	e.Int(w.GPUsPerNode)
	appendNICKey(e, w.NIC)
	e.Int(w.TP)
	e.Int(w.DP)
	e.Int(w.PP)
	e.Int(w.CP)
	e.Int(w.EP)
	e.Int(w.Microbatches)
	e.Int(w.MicrobatchSize)
	e.Int(w.Iterations)
	e.Bool(w.EagerRS)
	e.Float64(w.JitterFrac)
	e.Bool(w.UseGPipe)
}

// appendModelKey writes every field of a model in declaration order.
func appendModelKey(e *exp.KeyEncoder, m model.Spec) {
	e.String(m.Name)
	e.Int(m.Layers)
	e.Int(m.Hidden)
	e.Int(m.FFNHidden)
	e.Int(m.Heads)
	e.Int(m.KVHeads)
	e.Int(m.Vocab)
	e.Int(m.SeqLen)
	e.Int(m.BytesPerParam)
	e.Int(m.BytesPerGrad)
	e.Int(m.Experts)
	e.Int(m.TopK)
}

// appendGPUKey writes every field of a GPU in declaration order.
func appendGPUKey(e *exp.KeyEncoder, g model.GPU) {
	e.String(g.Name)
	e.Float64(g.PeakFLOPS)
	e.Float64(g.MFU)
}

// appendNICKey writes every field of a port configuration in
// declaration order.
func appendNICKey(e *exp.KeyEncoder, nic topo.PortConfig) {
	e.Int(nic.Ports)
	e.Int64(int64(nic.PerPort))
}

// planKey keys a grid's plan in the engine's plan table (see
// gridPlan): every field of the grid except Name, nested model.Spec,
// model.GPU and topo.PortConfig fields included, in declaration order.
// Models are encoded field by field, not by name, so a custom model
// that shares a preset's name gets its own plan; grids that differ
// only in name share one. A field added to Grid must be added here
// too; the key completeness test fails until it is.
func planKey(g Grid) string {
	e := exp.NewKeyEncoder("grid-plan")
	e.Len(len(g.Models))
	for _, m := range g.Models {
		appendModelKey(&e, m)
	}
	e.Len(len(g.GPUs))
	for _, gpu := range g.GPUs {
		appendGPUKey(&e, gpu)
	}
	e.Len(len(g.Fabrics))
	for _, k := range g.Fabrics {
		e.Int(int(k))
	}
	e.Float64s(g.LatenciesMS)
	e.Len(len(g.Parallelisms))
	for _, p := range g.Parallelisms {
		e.Int(p.TP)
		e.Int(p.DP)
		e.Int(p.PP)
		e.Int(p.CP)
		e.Int(p.EP)
	}
	e.Len(len(g.Schedules))
	for _, s := range g.Schedules {
		e.Int(int(s))
	}
	e.Float64s(g.JitterFracs)
	e.Bools(g.EagerRS)
	appendNICKey(&e, g.NIC)
	e.Int(g.Microbatches)
	e.Int(g.MicrobatchSize)
	e.Int(g.Iterations)
	return e.Sum("")
}

// appendKey writes every field of the fabric in declaration order.
func (f Fabric) appendKey(e *exp.KeyEncoder) {
	e.Int(int(f.Kind))
	e.Float64(f.ReconfigLatencyMS)
	e.Bool(f.Provision)
}

// workloadKeys derives a workload's memo keys from one encoding of it:
// a grid cell encodes its workload once and keys both its electrical
// baseline and its own fabric from that encoding.
type workloadKeys struct{ enc exp.KeyEncoder }

func keysOf(w Workload) workloadKeys {
	e := exp.NewKeyEncoder("workload")
	w.appendKey(&e)
	return workloadKeys{e}
}

// derive starts a key named name over the workload's encoding.
func (k *workloadKeys) derive(name string) exp.KeyEncoder {
	e := exp.NewKeyEncoder(name)
	e.Append(&k.enc)
	return e
}

// time keys the Time stage: one timed execution on fabric f.
func (k *workloadKeys) time(f Fabric) string {
	e := k.derive("simulate")
	f.appendKey(&e)
	return e.Sum("time")
}

// traced keys the Time stage's trace-recording electrical run.
func (k *workloadKeys) traced() string {
	e := k.derive("simulate-traced")
	return e.Sum("time")
}

// build keys the Build stage: the workload's one program, shared by
// every fabric.
func (k *workloadKeys) build() string {
	e := k.derive("build")
	return e.Sum("build")
}

// provision keys the Provision stage at one reconfiguration latency.
func (k *workloadKeys) provision(latencyMS float64) string {
	e := k.derive("provisioned-stable")
	e.Float64(latencyMS)
	return e.Sum("provision")
}

// seed names the workload's namespace in the Provision stage's
// latency-free profile caches.
func (k *workloadKeys) seed() string {
	e := k.derive("provision-seed")
	return e.Sum("")
}
