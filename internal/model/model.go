// Package model describes the transformer models whose training traffic
// drives the photonic-rail evaluation: parameter counting, per-layer
// tensor sizes, FLOP estimates, and the GPU compute model that converts
// FLOPs into simulated compute time.
package model

import (
	"fmt"

	"photonrail/internal/units"
)

// Spec is a decoder-only transformer specification (Llama-style:
// grouped-query attention and a SwiGLU MLP).
type Spec struct {
	// Name identifies the model, e.g. "Llama3-8B".
	Name string
	// Layers is the transformer block count.
	Layers int
	// Hidden is the model (embedding) dimension.
	Hidden int
	// FFNHidden is the MLP intermediate dimension.
	FFNHidden int
	// Heads and KVHeads are the attention and key/value head counts
	// (KVHeads < Heads is grouped-query attention).
	Heads, KVHeads int
	// Vocab is the vocabulary size.
	Vocab int
	// SeqLen is the training sequence length.
	SeqLen int
	// BytesPerParam is the training-time parameter width (2 = bf16).
	BytesPerParam int
	// BytesPerGrad is the gradient width used by the data-parallel
	// reductions (4 = fp32 master gradients).
	BytesPerGrad int
	// Experts and TopK configure a mixture-of-experts MLP; Experts == 0
	// means dense.
	Experts, TopK int
}

// Validate checks the specification is structurally sound.
func (s Spec) Validate() error {
	switch {
	case s.Layers <= 0:
		return fmt.Errorf("model %s: %d layers", s.Name, s.Layers)
	case s.Hidden <= 0 || s.FFNHidden <= 0:
		return fmt.Errorf("model %s: hidden %d / ffn %d", s.Name, s.Hidden, s.FFNHidden)
	case s.Heads <= 0 || s.KVHeads <= 0 || s.Heads%s.KVHeads != 0:
		return fmt.Errorf("model %s: heads %d / kv heads %d", s.Name, s.Heads, s.KVHeads)
	case s.Hidden%s.Heads != 0:
		return fmt.Errorf("model %s: hidden %d not divisible by heads %d", s.Name, s.Hidden, s.Heads)
	case s.Vocab <= 0 || s.SeqLen <= 0:
		return fmt.Errorf("model %s: vocab %d / seq %d", s.Name, s.Vocab, s.SeqLen)
	case s.BytesPerParam <= 0 || s.BytesPerGrad <= 0:
		return fmt.Errorf("model %s: param bytes %d / grad bytes %d", s.Name, s.BytesPerParam, s.BytesPerGrad)
	case s.Experts < 0 || (s.Experts > 0 && (s.TopK <= 0 || s.TopK > s.Experts)):
		return fmt.Errorf("model %s: experts %d top-k %d", s.Name, s.Experts, s.TopK)
	}
	return nil
}

// IsMoE reports whether the MLP is mixture-of-experts.
func (s Spec) IsMoE() bool { return s.Experts > 0 }

// AttentionParams returns the per-layer attention parameter count:
// Q and O projections are Hidden², K and V are Hidden×(Hidden·KV/Heads).
func (s Spec) AttentionParams() int64 {
	h := int64(s.Hidden)
	kvDim := h * int64(s.KVHeads) / int64(s.Heads)
	return h*h + // Q
		h*kvDim + // K
		h*kvDim + // V
		h*h // O
}

// MLPParams returns the per-layer MLP parameter count. A SwiGLU MLP has
// three projections (gate, up, down). For MoE, every expert holds a full
// MLP (router parameters are negligible and ignored).
func (s Spec) MLPParams() int64 {
	dense := 3 * int64(s.Hidden) * int64(s.FFNHidden)
	if s.IsMoE() {
		return dense * int64(s.Experts)
	}
	return dense
}

// LayerParams returns the per-layer parameter count (attention + MLP;
// norms are negligible and ignored).
func (s Spec) LayerParams() int64 { return s.AttentionParams() + s.MLPParams() }

// EmbeddingParams returns the input-embedding plus output-head parameter
// count (untied).
func (s Spec) EmbeddingParams() int64 { return 2 * int64(s.Vocab) * int64(s.Hidden) }

// LayerParamBytes returns per-layer parameter bytes at training width.
func (s Spec) LayerParamBytes() units.ByteSize {
	return units.ByteSize(s.LayerParams() * int64(s.BytesPerParam))
}

// LayerGradBytes returns per-layer gradient bytes at reduction width.
func (s Spec) LayerGradBytes() units.ByteSize {
	return units.ByteSize(s.LayerParams() * int64(s.BytesPerGrad))
}

// ActivationBytes returns the boundary activation tensor size for a
// microbatch of mbs sequences: mbs × SeqLen × Hidden at parameter width.
// This is the tensor a pipeline Send/Recv moves.
func (s Spec) ActivationBytes(mbs int) units.ByteSize {
	return units.ByteSize(int64(mbs) * int64(s.SeqLen) * int64(s.Hidden) * int64(s.BytesPerParam))
}

// ForwardFLOPsPerLayer returns the forward FLOPs of one layer for a
// microbatch of mbs sequences: the 2·P matmul term plus the attention
// score term 4·seq²·hidden per sequence. MoE layers count only the TopK
// active experts.
func (s Spec) ForwardFLOPsPerLayer(mbs int) int64 {
	tokens := int64(mbs) * int64(s.SeqLen)
	active := s.AttentionParams()
	if s.IsMoE() {
		active += 3 * int64(s.Hidden) * int64(s.FFNHidden) * int64(s.TopK)
	} else {
		active += s.MLPParams()
	}
	matmul := 2 * active * tokens
	attn := 4 * int64(mbs) * int64(s.SeqLen) * int64(s.SeqLen) * int64(s.Hidden)
	return matmul + attn
}

// BackwardFLOPsPerLayer returns the backward FLOPs (2× forward).
func (s Spec) BackwardFLOPsPerLayer(mbs int) int64 { return 2 * s.ForwardFLOPsPerLayer(mbs) }

// GPU is the compute model: peak dense throughput derated by an MFU
// (model FLOPs utilization).
type GPU struct {
	// Name identifies the part, e.g. "A100".
	Name string
	// PeakFLOPS is peak dense bf16 throughput in FLOP/s.
	PeakFLOPS float64
	// MFU is the achieved fraction of peak.
	MFU float64
}

// Common GPUs.
var (
	A100 = GPU{Name: "A100", PeakFLOPS: 312e12, MFU: 0.40}
	H100 = GPU{Name: "H100", PeakFLOPS: 989e12, MFU: 0.40}
	H200 = GPU{Name: "H200", PeakFLOPS: 989e12, MFU: 0.42}
)

// ComputeTime converts a FLOP count into simulated compute time.
func (g GPU) ComputeTime(flops int64) units.Duration {
	if flops <= 0 {
		return 0
	}
	return units.FromSeconds(float64(flops) / (g.PeakFLOPS * g.MFU))
}
