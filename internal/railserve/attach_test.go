package railserve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"strings"
	"testing"

	"photonrail"
	"photonrail/internal/opusnet"
	"photonrail/internal/scenario"
)

// attachSpec is a small grid with a skipped (C2-infeasible static) cell.
func attachSpec() scenario.Spec {
	return scenario.SpecOf(scenario.Grid{
		Name:         "attach",
		Fabrics:      []scenario.FabricKind{scenario.Electrical, scenario.Photonic, scenario.PhotonicStatic},
		LatenciesMS:  []float64{5},
		Parallelisms: []scenario.Parallelism{{TP: 4, DP: 2, PP: 2}, {TP: 4, DP: 1, CP: 2, PP: 2}},
		Iterations:   1,
	})
}

// readRawFrame reads one frame's body without opusnet's decoder.
func readRawFrame(t *testing.T, r io.Reader) []byte {
	t.Helper()
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		t.Fatal(err)
	}
	body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(r, body); err != nil {
		t.Fatal(err)
	}
	return body
}

// TestOldRequesterGetsRowsInEnvelope: a requester that does not set
// WantRaw gets frames whose whole body a plain json.Unmarshal parses —
// the exp_result's rowsJSON carrying the very bytes a requester that
// asks for the attachment receives, and the cells_result its rows
// structured.
func TestOldRequesterGetsRowsInEnvelope(t *testing.T) {
	spec := attachSpec()
	grid, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	rows := localRows(t, photonrail.NewEngine(0), grid)
	want := gridJSON(t, grid.Name, rows)
	s := newTestServer(t, 0, 0)
	run, err := dialTest(t, s).RunExperiment(context.Background(), gridReq(spec), nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.RowsJSON != want {
		t.Fatalf("attached rows diverged from a local run:\n got: %s\nwant: %s", run.RowsJSON, want)
	}

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := gridReq(spec)
	if err := opusnet.WriteMessage(conn, &opusnet.Message{Type: opusnet.MsgExpReq, Seq: 1, Exp: &req}); err != nil {
		t.Fatal(err)
	}
	var m opusnet.Message
	if err := json.Unmarshal(readRawFrame(t, conn), &m); err != nil {
		t.Fatalf("exp_result body is not one JSON value: %v", err)
	}
	if m.Type != opusnet.MsgExpResult || m.RawLen != 0 || m.ExpResult == nil || m.ExpResult.RowsJSON != want {
		t.Fatalf("old requester's exp_result = %+v, want rowsJSON equal to the attached rows", m)
	}

	indices := []int{2, 0, 5}
	if err := opusnet.WriteMessage(conn, &opusnet.Message{Type: opusnet.MsgCellsReq, Seq: 2,
		Cells: &opusnet.CellsRequestPayload{Spec: &spec, Indices: indices}}); err != nil {
		t.Fatal(err)
	}
	m = opusnet.Message{}
	if err := json.Unmarshal(readRawFrame(t, conn), &m); err != nil {
		t.Fatalf("cells_result body is not one JSON value: %v", err)
	}
	if m.Type != opusnet.MsgCellsResult || m.CellsResult == nil || m.CellsResult.RowLens != nil {
		t.Fatalf("old requester's cells_result = %+v", m)
	}
	wantRows := make([]scenario.Row, len(indices))
	for i, idx := range indices {
		wantRows[i] = rows[idx]
	}
	if got, want := rowsJSON(t, m.CellsResult.Rows), rowsJSON(t, wantRows); got != want {
		t.Errorf("structured rows = %s, want %s", got, want)
	}
}

// TestClientReadsRowsFromOldDaemon: a daemon from before row
// attachments ignores WantRaw and answers with rowsJSON in the
// envelope; the client reads that form as it reads the attachment.
func TestClientReadsRowsFromOldDaemon(t *testing.T) {
	spec := attachSpec()
	grid, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	rows := localRows(t, photonrail.NewEngine(0), grid)
	want := gridJSON(t, grid.Name, rows)
	clientConn, peer := net.Pipe()
	c := NewClient(clientConn)
	t.Cleanup(func() { _ = c.Close() })
	peerErr := make(chan error, 1)
	go func() {
		defer peer.Close()
		req, err := opusnet.ReadMessage(peer)
		if err != nil {
			peerErr <- err
			return
		}
		if !req.WantRaw {
			t.Error("client did not ask for the attachment")
		}
		peerErr <- opusnet.WriteMessage(peer, &opusnet.Message{Type: opusnet.MsgExpResult, Seq: req.Seq,
			ExpResult: &opusnet.ExpResultPayload{Name: req.Exp.Name, Grid: grid.Name, RowsJSON: want}})
	}()
	run, err := c.RunExperiment(context.Background(), gridReq(spec), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-peerErr; err != nil {
		t.Fatalf("peer: %v", err)
	}
	if run.RowsJSON != want {
		t.Fatalf("rows = %s, want %s", run.RowsJSON, want)
	}
	csv, err := run.Render("csv")
	if err != nil {
		t.Fatal(err)
	}
	var wantCSV strings.Builder
	if err := photonrail.GridExperimentResult(grid.Name, rows).RenderCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}
	if csv != wantCSV.String() {
		t.Errorf("csv derived from the old form = %q, want %q", csv, wantCSV.String())
	}
}
