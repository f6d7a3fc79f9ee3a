package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Connection negotiation. Every negotiated connection (peer transport
// and client port alike) opens with a Hello exchange riding the
// stream-control element of batch.go: the dialer announces its
// protocol version, cluster shape, feature set and receive window; the
// acceptor answers only after seeing a valid hello — so a legacy
// dialer that never sends one is served in legacy mode, byte for byte
// — and either side that cannot proceed answers CtrlReject with a
// reason instead of silently dropping the socket.
//
// The hello payload is forward-compatible by construction: decoders
// ignore trailing bytes, so future versions may append fields without
// breaking old peers, and unknown feature bits are simply never part
// of the negotiated intersection.

// ProtoVersion is the wire protocol version this build speaks. A hello
// carrying a different version is rejected — the version only moves
// when the stream alphabet itself changes, which the feature bits
// exist to avoid.
const ProtoVersion = 1

// Feature bits a hello advertises. A capability is used on a
// connection only when both hellos carry its bit (Intersect), which is
// what lets heterogeneous builds interoperate: the connection degrades
// to the common subset instead of desynchronizing.
//
// Bits 2, 4 and 8 are retired and must never be reused. Older builds
// announced 2 (vectored egress) and 4 (flush delay) — both purely
// sender-local, so no peer ever acted on them — and reserved 8 for a
// compressed envelope that was never built. Such peers are still on
// the wire and keep setting the first two; a new meaning for either
// bit would be switched on against them by mistake. Receivers ignore
// the retired bits.
const (
	// FeatDelta: the sender can decode delta-encoded token state
	// (CtrlTokenDelta payloads).
	FeatDelta uint64 = 1
)

// Hello is the negotiation announcement either side of a connection
// sends as a CtrlHello stream control before any frame.
type Hello struct {
	// Version is the sender's ProtoVersion.
	Version uint64
	// Nodes and Resources are the sender's cluster shape (N and M).
	// Zero means "unknown/unchecked" — a client that dials precisely to
	// learn M sends zero; mismatching non-zero values are rejected.
	Nodes, Resources int
	// Features is the sender's advertised feature set (Feat* bits).
	Features uint64
	// Window is the sender's receive window in bytes: how many stream
	// bytes it is willing to buffer from the peer before crediting them
	// back with CtrlWindow updates. Zero disables crediting (the sender
	// promises to drain unboundedly).
	Window uint64
	// Shards is the sender's resource-shard count (appended field —
	// absent in hellos from older builds, which ParseHello reports as
	// zero). Zero means unannounced and is interoperable with exactly
	// one shard: the flat single-universe protocol, whose frames carry
	// no shard tags. Mismatching non-zero values are rejected like a
	// shape mismatch.
	Shards int
}

// Intersect reports the feature set two hellos agree on.
func (h Hello) Intersect(o Hello) uint64 { return h.Features & o.Features }

// maxHelloShape bounds the node/resource counts a hello may claim; a
// hostile hello must not smuggle absurd shapes past validation.
const maxHelloShape = 1 << 24

// AppendHello appends h's payload encoding (version, nodes, resources,
// features, window, shards — all uvarints) onto dst. Wrap it in a
// control with AppendControl(dst, CtrlHello, payload).
func AppendHello(dst []byte, h Hello) []byte {
	dst = binary.AppendUvarint(dst, h.Version)
	dst = binary.AppendUvarint(dst, uint64(h.Nodes))
	dst = binary.AppendUvarint(dst, uint64(h.Resources))
	dst = binary.AppendUvarint(dst, h.Features)
	dst = binary.AppendUvarint(dst, h.Window)
	dst = binary.AppendUvarint(dst, uint64(h.Shards))
	return dst
}

// ParseHello decodes a CtrlHello payload. Trailing bytes are ignored —
// future versions may append fields — but a truncated or absurd hello
// is an error. The shards field is itself such an appended field:
// hellos from builds predating it simply end after window, which
// parses as Shards zero.
func ParseHello(payload []byte) (Hello, error) {
	var h Hello
	fields := [5]*uint64{&h.Version, nil, nil, &h.Features, &h.Window}
	var nodes, resources uint64
	fields[1], fields[2] = &nodes, &resources
	rest := payload
	for i, f := range fields {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return Hello{}, fmt.Errorf("wire: hello truncated at field %d", i)
		}
		*f = v
		rest = rest[n:]
	}
	if nodes > maxHelloShape || resources > maxHelloShape {
		return Hello{}, fmt.Errorf("wire: hello claims absurd shape %d/%d", nodes, resources)
	}
	h.Nodes, h.Resources = int(nodes), int(resources)
	if len(rest) > 0 {
		shards, n := binary.Uvarint(rest)
		if n <= 0 {
			return Hello{}, fmt.Errorf("wire: hello truncated at shards field")
		}
		if shards > MaxShards {
			return Hello{}, fmt.Errorf("wire: hello claims absurd shard count %d", shards)
		}
		h.Shards = int(shards)
	}
	return h, nil
}

// AppendWindowUpdate appends a CtrlWindow payload crediting n consumed
// bytes back to the sender.
func AppendWindowUpdate(dst []byte, n uint64) []byte {
	return binary.AppendUvarint(dst, n)
}

// ParseWindowUpdate decodes a CtrlWindow payload.
func ParseWindowUpdate(payload []byte) (uint64, error) {
	v, n := binary.Uvarint(payload)
	if n <= 0 {
		return 0, fmt.Errorf("wire: truncated window update")
	}
	return v, nil
}

// maxRejectReason bounds a CtrlReject reason string.
const maxRejectReason = 256

// AppendReject appends a CtrlReject payload carrying a human-readable
// reason (truncated to maxRejectReason bytes).
func AppendReject(dst []byte, reason string) []byte {
	if len(reason) > maxRejectReason {
		reason = reason[:maxRejectReason]
	}
	dst = binary.AppendUvarint(dst, uint64(len(reason)))
	return append(dst, reason...)
}

// ParseReject decodes a CtrlReject payload.
func ParseReject(payload []byte) (string, error) {
	n, k := binary.Uvarint(payload)
	if k <= 0 || n > maxRejectReason || uint64(len(payload)-k) < n {
		return "", fmt.Errorf("wire: malformed reject payload")
	}
	return string(payload[k : uint64(k)+n]), nil
}

// Control is one stream-control element read outside a FrameReader —
// the handshake phase, where the dialer reads controls synchronously
// before any frame machinery exists.
type Control struct {
	Code    uint64
	Payload []byte
}

// ReadControl reads exactly one stream-control element from br. It is
// the dialer's handshake reader: anything other than a control (a
// frame, an envelope, garbage) is an error, because a conforming
// acceptor sends nothing but controls before the handshake completes.
func ReadControl(br *bufio.Reader) (Control, error) {
	for _, marker := range [2]string{"batch", "control"} {
		b, err := binary.ReadUvarint(br)
		if err != nil {
			return Control{}, err
		}
		if b != 0 {
			return Control{}, fmt.Errorf("wire: expected a stream control, got a %s-position length %d", marker, b)
		}
	}
	code, err := binary.ReadUvarint(br)
	if err != nil {
		return Control{}, noEOF(err)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return Control{}, noEOF(err)
	}
	if n > maxControlPayload {
		return Control{}, fmt.Errorf("wire: stream control %d with %d-byte payload exceeds limit %d", code, n, maxControlPayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return Control{}, noEOF(err)
	}
	return Control{Code: code, Payload: payload}, nil
}
