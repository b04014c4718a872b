package model

import (
	"testing"

	"photonrail/internal/units"
)

// within checks v is within tol (fractional) of want.
func within(v, want, tol float64) bool {
	d := v - want
	if d < 0 {
		d = -d
	}
	return d <= tol*want
}

// params returns s's total parameter count: every layer plus the
// embeddings.
func params(s Spec) int64 {
	return int64(s.Layers)*s.LayerParams() + s.EmbeddingParams()
}

func TestLlama3_8BParamCount(t *testing.T) {
	p := float64(params(Llama3_8B))
	// Llama 3 8B has 8.03B parameters.
	if !within(p, 8.03e9, 0.02) {
		t.Errorf("Llama3-8B params = %.3g, want ≈8.03e9", p)
	}
}

func TestLlama3_70BParamCount(t *testing.T) {
	p := float64(params(Llama3_70B))
	if !within(p, 70.6e9, 0.02) {
		t.Errorf("Llama3-70B params = %.3g, want ≈70.6e9", p)
	}
}

func TestLlama31_405BParamCount(t *testing.T) {
	p := float64(params(Llama31_405B))
	if !within(p, 405e9, 0.03) {
		t.Errorf("Llama3.1-405B params = %.3g, want ≈405e9", p)
	}
}

func TestMixtralActiveVsTotal(t *testing.T) {
	m := Mixtral8x7B
	if !m.IsMoE() {
		t.Fatal("Mixtral should be MoE")
	}
	// Total ≈ 46-47B, active-per-token via TopK=2 ≈ 13B.
	total := float64(params(m))
	if !within(total, 46.5e9, 0.05) {
		t.Errorf("Mixtral total params = %.3g, want ≈46.5e9", total)
	}
	// Dense layer params must be far below MoE layer params.
	dense := Llama3_8B.LayerParams()
	if m.LayerParams() <= 4*dense {
		t.Errorf("MoE layer params %.3g should be ≈8x dense %.3g",
			float64(m.LayerParams()), float64(dense))
	}
}

func TestValidatePresets(t *testing.T) {
	for _, s := range Presets() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Spec{
		{Name: "no-layers", Hidden: 8, FFNHidden: 8, Heads: 2, KVHeads: 2, Vocab: 10, SeqLen: 10, BytesPerParam: 2, BytesPerGrad: 4},
		{Name: "bad-heads", Layers: 2, Hidden: 8, FFNHidden: 8, Heads: 3, KVHeads: 2, Vocab: 10, SeqLen: 10, BytesPerParam: 2, BytesPerGrad: 4},
		{Name: "indivisible", Layers: 2, Hidden: 9, FFNHidden: 8, Heads: 2, KVHeads: 2, Vocab: 10, SeqLen: 10, BytesPerParam: 2, BytesPerGrad: 4},
		{Name: "bad-moe", Layers: 2, Hidden: 8, FFNHidden: 8, Heads: 2, KVHeads: 2, Vocab: 10, SeqLen: 10, BytesPerParam: 2, BytesPerGrad: 4, Experts: 4, TopK: 5},
		{Name: "no-grad-bytes", Layers: 2, Hidden: 8, FFNHidden: 8, Heads: 2, KVHeads: 2, Vocab: 10, SeqLen: 10, BytesPerParam: 2},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%s validated, want error", s.Name)
		}
	}
}

func TestActivationBytes(t *testing.T) {
	// Llama3-8B, mbs=2: 2 × 8192 × 4096 × 2B = 128MiB.
	got := Llama3_8B.ActivationBytes(2)
	want := units.ByteSize(2 * 8192 * 4096 * 2)
	if got != want {
		t.Errorf("ActivationBytes(2) = %d, want %d", got, want)
	}
}

func TestLayerBytes(t *testing.T) {
	s := Llama3_8B
	if s.LayerParamBytes() != units.ByteSize(s.LayerParams()*2) {
		t.Error("LayerParamBytes wrong")
	}
	if s.LayerGradBytes() != units.ByteSize(s.LayerParams()*4) {
		t.Error("LayerGradBytes wrong")
	}
	if s.LayerGradBytes() != 2*s.LayerParamBytes() {
		t.Error("fp32 grads should be 2x bf16 params")
	}
}

func TestFLOPs(t *testing.T) {
	s := Llama3_8B
	fwd := s.ForwardFLOPsPerLayer(1)
	if fwd <= 0 {
		t.Fatal("non-positive forward FLOPs")
	}
	if s.BackwardFLOPsPerLayer(1) != 2*fwd {
		t.Error("backward should be 2x forward")
	}
	// Matmul term dominates: 2 * 218M * 8192 ≈ 3.6e12; attention adds
	// 4*8192²*4096 ≈ 1.1e12.
	if !within(float64(fwd), 4.67e12, 0.05) {
		t.Errorf("forward FLOPs per layer = %.3g, want ≈4.67e12", float64(fwd))
	}
	// Monotone in microbatch size.
	if s.ForwardFLOPsPerLayer(2) <= fwd {
		t.Error("FLOPs not monotone in mbs")
	}
}

func TestMoEActiveFLOPs(t *testing.T) {
	// Active FLOPs use TopK experts, not all of them.
	m := Mixtral8x7B
	dense := m
	dense.Experts, dense.TopK = 0, 0
	moeF := m.ForwardFLOPsPerLayer(1)
	denseF := dense.ForwardFLOPsPerLayer(1)
	// TopK=2 means roughly 2x the dense MLP flops; far below 8x.
	if moeF <= denseF || float64(moeF) > 2.5*float64(denseF) {
		t.Errorf("MoE active FLOPs %.3g vs dense %.3g out of range", float64(moeF), float64(denseF))
	}
}

func TestComputeTime(t *testing.T) {
	// 125e12 effective FLOP/s (A100 at 0.4 MFU): 1.25e12 FLOPs -> 10ms.
	got := A100.ComputeTime(1_248_000_000_000)
	if !within(got.Milliseconds(), 10, 0.01) {
		t.Errorf("ComputeTime = %v, want ≈10ms", got)
	}
	if A100.ComputeTime(0) != 0 || A100.ComputeTime(-5) != 0 {
		t.Error("non-positive FLOPs should cost 0")
	}
}

func TestByName(t *testing.T) {
	if s, ok := ByName("Llama3-8B"); !ok || s.Layers != 32 {
		t.Error("ByName(Llama3-8B) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) found something")
	}
}

func TestPerLayerTimeMagnitude(t *testing.T) {
	// Sanity for the Fig. 8 calibration: Llama3-8B layer forward with
	// mbs=2 on an A100 with TP=4 should be tens of milliseconds.
	s := Llama3_8B
	flops := s.ForwardFLOPsPerLayer(2) / 4 // TP=4
	d := A100.ComputeTime(flops)
	if d < 5*units.Millisecond || d > 100*units.Millisecond {
		t.Errorf("per-layer fwd time = %v, want 5-100ms", d)
	}
}
