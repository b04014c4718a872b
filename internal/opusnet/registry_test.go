package opusnet

import (
	"strings"
	"testing"
)

// setPayload sets the payload pointer named by wire tag on m.
func setPayload(t *testing.T, m *Message, tag string) {
	t.Helper()
	switch tag {
	case "stats":
		m.Stats = &StatsPayload{}
	case "progress":
		m.Progress = &GridProgress{}
	case "cache":
		m.Cache = &CacheStatsPayload{}
	case "exp":
		m.Exp = &ExpRequestPayload{}
	case "expResult":
		m.ExpResult = &ExpResultPayload{}
	case "cells":
		m.Cells = &CellsRequestPayload{}
	case "cellsResult":
		m.CellsResult = &CellsResultPayload{}
	case "fleetReg":
		m.FleetReg = &FleetRegisterPayload{}
	case "heartbeat":
		m.Heartbeat = &HeartbeatPayload{}
	case "drain":
		m.DrainReq = &DrainPayload{}
	default:
		t.Fatalf("registry names unknown payload tag %q", tag)
	}
}

// TestRegistryAndDispatchAgree cross-checks the protocol's ledgers at
// runtime: every registered type must validate once its registered
// payloads are attached, and whatever payload the ValidatePayload
// switch demands must be one the registry granted — so the map and the
// switch cannot drift apart without a test failure.
func TestRegistryAndDispatchAgree(t *testing.T) {
	for mt, allowed := range payloadRegistry {
		full := &Message{Type: mt, Seq: 1}
		for _, tag := range allowed {
			setPayload(t, full, tag)
		}
		if err := ValidatePayload(full); err != nil {
			t.Errorf("%s with all registered payloads: %v", mt, err)
		}

		// An empty frame either passes (envelope-only type) or fails
		// demanding a payload — and that payload must be registered.
		bare := &Message{Type: mt, Seq: 1}
		if err := ValidatePayload(bare); err != nil {
			registered := false
			for _, tag := range allowed {
				if strings.Contains(err.Error(), `"`+tag+`"`) {
					registered = true
				}
			}
			if !registered {
				t.Errorf("%s: dispatch requires a payload the registry does not grant: %v", mt, err)
			}
		}
	}
}

func TestValidatePayloadRejectsUnknownType(t *testing.T) {
	err := ValidatePayload(&Message{Type: MsgType("bogus")})
	if err == nil || !strings.Contains(err.Error(), "unknown message type") {
		t.Fatalf("got %v, want unknown-message-type error", err)
	}
}

func TestValidatePayloadRejectsForeignPayload(t *testing.T) {
	m := &Message{Type: MsgAck, Seq: 1, Stats: &StatsPayload{}}
	err := ValidatePayload(m)
	if err == nil || !strings.Contains(err.Error(), "unregistered payload") {
		t.Fatalf("got %v, want unregistered-payload error", err)
	}
}

func TestValidatePayloadRequiresPrimaryPayload(t *testing.T) {
	err := ValidatePayload(&Message{Type: MsgExpReq, Seq: 1})
	if err == nil || !strings.Contains(err.Error(), `missing its "exp" payload`) {
		t.Fatalf("got %v, want missing-exp error", err)
	}
}
