package railfleet

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"slices"
	"testing"

	"photonrail"
	"photonrail/internal/faultnet"
	"photonrail/internal/opusnet"
	"photonrail/internal/railserve"
	"photonrail/internal/scenario"
)

// rowsFleet runs a two-backend fleet whose b0 is a scripted peer that
// answers cells_req with reply and whose b1 is a real raild, and returns the grid's
// bytes as the coordinator served them, the failovers it counted and
// the cells the real backend executed.
func rowsFleet(t *testing.T, spec scenario.Spec, reply func(msg *opusnet.Message) []*opusnet.Message) (string, float64, uint64) {
	t.Helper()
	fn := faultnet.New()
	t.Cleanup(fn.Close)
	rawBackend(fn.Listen("b0"), func(msg *opusnet.Message) []*opusnet.Message {
		switch {
		case msg.Type == opusnet.MsgStatsReq:
			return []*opusnet.Message{{Type: opusnet.MsgStatsResp, Seq: msg.Seq, Cache: &opusnet.CacheStatsPayload{}}}
		case msg.Type != opusnet.MsgCellsReq || msg.Cells == nil:
			return []*opusnet.Message{{Type: opusnet.MsgErr, Seq: msg.Seq, Error: "scripted backend serves cells_req only"}}
		}
		return reply(msg)
	})
	real, err := railserve.NewServer(railserve.Config{Listener: fn.Listen("b1"), Workers: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = real.Close(); real.Drain() })
	coord, err := New(Config{
		Listener: fn.Listen("coord"),
		Backends: []string{"b0", "b1"},
		InFlight: 16,
		Dial:     fn.Dial,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coord.Close(); coord.Drain() })
	conn, err := fn.Dial("coord")
	if err != nil {
		t.Fatal(err)
	}
	c := railserve.NewClient(conn)
	t.Cleanup(func() { _ = c.Close() })
	run, err := c.RunExperiment(context.Background(), gridReq(spec), nil)
	if err != nil {
		t.Fatal(err)
	}
	return run.RowsJSON, scrapeCounters(t, coord)["railfleet_failovers_total"], real.Stats().CellsExecuted
}

// attachedRows answers a cells_req with the local run's rows for its
// indices, attached, after letting edit tamper with the reply.
func attachedRows(t *testing.T, grid scenario.Grid, edit func(p *opusnet.CellsResultPayload, raw []byte) []byte) func(msg *opusnet.Message) []*opusnet.Message {
	t.Helper()
	rows := localRows(t, photonrail.NewEngine(0), grid)
	return func(msg *opusnet.Message) []*opusnet.Message {
		idx := msg.Cells.Indices
		p := &opusnet.CellsResultPayload{Name: grid.Name, Indices: slices.Clone(idx)}
		var raw []byte
		for _, i := range idx {
			js, err := photonrail.GridRowJSON(rows[i])
			if err != nil {
				panic(err)
			}
			p.RowLens = append(p.RowLens, len(js))
			raw = append(raw, js...)
		}
		return []*opusnet.Message{{Type: opusnet.MsgCellsResult, Seq: msg.Seq, CellsResult: p, Raw: edit(p, raw)}}
	}
}

// TestFleetFailsOverPermutedIndices: a backend whose reply echoes its
// batch's indices in another order fails its batch the way a dead
// backend does — re-sharded to the survivor, one failover counted —
// and the grid's bytes still match a single daemon's.
func TestFleetFailsOverPermutedIndices(t *testing.T) {
	spec := splitSpec()
	want, cells := requireSplit(t, spec)
	grid, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	got, failovers, executed := rowsFleet(t, spec, attachedRows(t, grid, func(p *opusnet.CellsResultPayload, raw []byte) []byte {
		slices.Reverse(p.Indices)
		return raw
	}))
	if got != want {
		t.Fatal("grid bytes diverged from a single daemon's")
	}
	if failovers != 1 || executed != uint64(cells) {
		t.Errorf("failovers = %v, survivor executed %d of %d cells; want 1 failover and every cell on the survivor", failovers, executed, cells)
	}
}

// TestFleetFailsOverBadRowLengths: a reply whose row lengths do not
// split its attachment is refused at framing, so the backend's batch
// fails over like a dead backend's.
func TestFleetFailsOverBadRowLengths(t *testing.T) {
	spec := splitSpec()
	want, cells := requireSplit(t, spec)
	grid, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	got, failovers, executed := rowsFleet(t, spec, attachedRows(t, grid, func(p *opusnet.CellsResultPayload, raw []byte) []byte {
		p.RowLens[0]--
		return raw
	}))
	if got != want {
		t.Fatal("grid bytes diverged from a single daemon's")
	}
	if failovers != 1 || executed != uint64(cells) {
		t.Errorf("failovers = %v, survivor executed %d of %d cells; want 1 failover and every cell on the survivor", failovers, executed, cells)
	}
}

// TestFleetSplicesStructuredRowsFromOldBackend: a backend from before
// row attachments ignores WantRaw and answers with structured rows;
// the coordinator renders them through the engine's row renderer and
// serves the same bytes, with no failover.
func TestFleetSplicesStructuredRowsFromOldBackend(t *testing.T) {
	spec := splitSpec()
	want, cells := requireSplit(t, spec)
	grid, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	rows := localRows(t, photonrail.NewEngine(0), grid)
	got, failovers, executed := rowsFleet(t, spec, func(msg *opusnet.Message) []*opusnet.Message {
		batch := make([]scenario.Row, len(msg.Cells.Indices))
		for j, i := range msg.Cells.Indices {
			batch[j] = rows[i]
		}
		return []*opusnet.Message{{Type: opusnet.MsgCellsResult, Seq: msg.Seq,
			CellsResult: &opusnet.CellsResultPayload{Name: grid.Name, Indices: msg.Cells.Indices, Rows: batch}}}
	})
	if got != want {
		t.Fatal("grid bytes diverged from a single daemon's")
	}
	if failovers != 0 || executed == 0 || executed == uint64(cells) {
		t.Errorf("failovers = %v, real backend executed %d of %d cells; want no failover and a split grid", failovers, executed, cells)
	}
}

// TestFleetOldRequesterGetsRowsInEnvelope: a requester that does not
// set WantRaw gets the coordinator's exp_result as one JSON body whose
// rowsJSON is the grid a single daemon renders.
func TestFleetOldRequesterGetsRowsInEnvelope(t *testing.T) {
	spec := splitSpec()
	want, _ := requireSplit(t, spec)
	fl := startFleet(t, 2, 4)
	conn, err := fl.net.Dial("coord")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := gridReq(spec)
	if err := opusnet.WriteMessage(conn, &opusnet.Message{Type: opusnet.MsgExpReq, Seq: 1, Exp: &req}); err != nil {
		t.Fatal(err)
	}
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			t.Fatal(err)
		}
		body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(conn, body); err != nil {
			t.Fatal(err)
		}
		var m opusnet.Message
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("frame body is not one JSON value: %v", err)
		}
		if m.Progress != nil {
			continue
		}
		if m.Type != opusnet.MsgExpResult || m.RawLen != 0 || m.ExpResult == nil || m.ExpResult.RowsJSON != want {
			t.Fatalf("old requester's exp_result = %+v, want rowsJSON equal to a single daemon's", m)
		}
		return
	}
}
