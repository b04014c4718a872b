package opusnet

import (
	"testing"

	"photonrail/internal/model"
	"photonrail/internal/topo"
	"photonrail/internal/units"
	"photonrail/internal/workload"
)

// TestReplayFullProgram drives a real (small) training program's
// scale-out collectives through the TCP control plane end to end.
func TestReplayFullProgram(t *testing.T) {
	cl, err := topo.Perlmutter(4, topo.TwoPort200G)
	if err != nil {
		t.Fatal(err)
	}
	tiny := model.Spec{
		Name: "tiny", Layers: 4, Hidden: 512, FFNHidden: 1408,
		Heads: 8, KVHeads: 4, Vocab: 1000, SeqLen: 512,
		BytesPerParam: 2, BytesPerGrad: 4,
	}
	p := workload.MustBuild(workload.Config{
		Model:          tiny,
		GPU:            model.A100,
		Cluster:        cl,
		TP:             4,
		DP:             2,
		PP:             2,
		Microbatches:   2,
		MicrobatchSize: 1,
		Iterations:     1,
	})
	srv, err := NewServer(ServerConfig{Cluster: cl, ReconfigLatency: units.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	driven, err := Replay(srv.Addr(), p)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, task := range p.Tasks {
		if task.IsCollective() && !task.ScaleUp {
			want++
		}
	}
	if driven != want {
		t.Errorf("drove %d collectives, want %d", driven, want)
	}
	// Controller saw real work: reconfigurations happened and every
	// acquisition was granted (Replay returned without error).
	c, err := Dial(srv.Addr(), -1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Reconfigurations == 0 {
		t.Error("no reconfigurations recorded")
	}
	if st.FastGrants+st.QueuedGrants == 0 {
		t.Error("no grants recorded")
	}
}
