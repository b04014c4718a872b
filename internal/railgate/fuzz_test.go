package railgate

import (
	"bytes"
	"encoding/json"
	"testing"

	"photonrail/internal/opusnet"
)

// FuzzGatewayParams feeds arbitrary bodies to the HTTP parameter
// decoder and checks its invariants: decoding never panics; an
// accepted body's canonical JSON reaches a decode → encode → decode
// fixpoint (the gateway forwards exactly what it parsed); and an
// accepted body with one non-space byte appended is refused (nothing
// may follow the parameter object).
func FuzzGatewayParams(f *testing.F) {
	for _, seed := range []string{
		"",
		"  \n",
		`{}`,
		`null`,
		`{"iterations":4}`,
		`{"iterations":1,"windowIterations":2,"latenciesMS":[0,1.5,100],"rail":1,"gpus":8192,"timeoutMS":500}`,
		`{"grid":{"name":"g","models":["Llama3-8B"],"fabrics":["electrical","photonic"],"latenciesMS":[5],` +
			`"parallelisms":[{"tp":4,"dp":2,"pp":2}],"iterations":1}}`,
		`{"ITERATIONS":3}`,
		`{"iterations":1}xyz`,
		`{"iterations":1}{"iterations":99}`,
		`{"bogusField":1}`,
		`{"latenciesMS":[1e308,-0,5e-324]}`,
		"{\"name\":\"\xff\"}",
	} {
		f.Add([]byte(seed), byte('x'))
	}

	f.Fuzz(func(t *testing.T, body []byte, extra byte) {
		var req opusnet.ExpRequestPayload
		if err := decodeBody(bytes.NewReader(body), &req); err != nil {
			return // refused input: only the no-panic invariant applies
		}
		first, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted body failed to encode: %v\nbody: %q", err, body)
		}
		var again opusnet.ExpRequestPayload
		if err := decodeBody(bytes.NewReader(first), &again); err != nil {
			t.Fatalf("canonical JSON of an accepted body refused: %v\njson: %s", err, first)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip diverged:\n first: %s\nsecond: %s", first, second)
		}
		switch extra {
		case ' ', '\t', '\n', '\r':
			return // JSON whitespace may trail the object
		}
		var trailing opusnet.ExpRequestPayload
		if err := decodeBody(bytes.NewReader(append(body[:len(body):len(body)], extra)), &trailing); err == nil {
			t.Fatalf("accepted body with a trailing %q byte: %q", extra, body)
		}
	})
}
