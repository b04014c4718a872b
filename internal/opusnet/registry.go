package opusnet

import "fmt"

// payloadRegistry is the protocol's declarative payload ledger: for
// every message type, the wire tags of the Message payload pointers
// its frames may carry. A type mapping to nil rides on the envelope's
// scalar fields alone (Seq/Rank/Rail/Group/Error and friends).
//
// Adding a MsgType means touching three ledgers in this package — this
// map, the ValidatePayload switch, and the round-trip/fuzz seed corpus
// in fuzz_test.go. raillint's protoconsistency analyzer fails the
// build if any of the three is forgotten.
var payloadRegistry = map[MsgType][]string{
	MsgRegister:      nil,
	MsgAcquire:       nil,
	MsgRelease:       nil,
	MsgProvision:     nil,
	MsgStatsReq:      nil,
	MsgAck:           nil,
	MsgErr:           nil,
	MsgStatsResp:     {"stats", "cache"},
	MsgExpReq:        {"exp"},
	MsgExpProgress:   {"progress"},
	MsgExpResult:     {"expResult"},
	MsgCancel:        nil,
	MsgCellsReq:      {"cells"},
	MsgCellsResult:   {"cellsResult"},
	MsgFleetRegister: {"fleetReg"},
	MsgHeartbeat:     {"heartbeat"},
	MsgDrain:         {"drain"},
}

// presentPayloads lists the wire tags of the payload pointers set on
// m, in Message field order.
func presentPayloads(m *Message) []string {
	var out []string
	if m.Stats != nil {
		out = append(out, "stats")
	}
	if m.Progress != nil {
		out = append(out, "progress")
	}
	if m.Cache != nil {
		out = append(out, "cache")
	}
	if m.Exp != nil {
		out = append(out, "exp")
	}
	if m.ExpResult != nil {
		out = append(out, "expResult")
	}
	if m.Cells != nil {
		out = append(out, "cells")
	}
	if m.CellsResult != nil {
		out = append(out, "cellsResult")
	}
	if m.FleetReg != nil {
		out = append(out, "fleetReg")
	}
	if m.Heartbeat != nil {
		out = append(out, "heartbeat")
	}
	if m.DrainReq != nil {
		out = append(out, "drain")
	}
	return out
}

// ValidatePayload checks m's payload pointers against the protocol:
// the type must be known, every payload present must be one the type
// registered, and the type's primary payload must be present. It is a
// diagnostic for handlers and tests — ReadMessage deliberately does
// not call it, so wire acceptance is unchanged and a newer peer's
// extra payloads fail loudly at dispatch rather than silently at
// framing.
func ValidatePayload(m *Message) error {
	allowed, known := payloadRegistry[m.Type]
	if !known {
		return fmt.Errorf("opusnet: unknown message type %q", m.Type)
	}

	// The operational ledger: which payload each type cannot do
	// without. Response types carry their result; requests with a body
	// carry their spec; the rest are envelope-only.
	var required string
	switch m.Type {
	case MsgRegister, MsgAcquire, MsgRelease, MsgProvision, MsgStatsReq,
		MsgAck, MsgErr, MsgCancel:
		required = ""
	case MsgStatsResp:
		required = "stats"
	case MsgExpProgress:
		required = "progress"
	case MsgExpReq:
		required = "exp"
	case MsgExpResult:
		required = "expResult"
	case MsgCellsReq:
		required = "cells"
	case MsgCellsResult:
		required = "cellsResult"
	case MsgFleetRegister:
		required = "fleetReg"
	case MsgHeartbeat:
		required = "heartbeat"
	case MsgDrain:
		required = "drain"
	default:
		return fmt.Errorf("opusnet: message type %q registered but not dispatched", m.Type)
	}

	present := presentPayloads(m)
	isAllowed := func(tag string) bool {
		for _, a := range allowed {
			if a == tag {
				return true
			}
		}
		return false
	}
	for _, tag := range present {
		if !isAllowed(tag) {
			return fmt.Errorf("opusnet: %s frame carries unregistered payload %q", m.Type, tag)
		}
	}
	if required != "" {
		for _, tag := range present {
			if tag == required {
				return nil
			}
		}
		return fmt.Errorf("opusnet: %s frame is missing its %q payload", m.Type, required)
	}
	return nil
}
