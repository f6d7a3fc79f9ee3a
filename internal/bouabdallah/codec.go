package bouabdallah

import (
	"mralloc/internal/naimitrehel"
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/wire"
)

// Wire codecs for the three Bouabdallah–Laforest message kinds. The
// control token rides the Naimi–Tréhel token payload, so ctWire's two
// Kind faces (request/token) share one codec and the token face
// serializes the full per-resource HasToken/Last/Seq vector.

func init() {
	wire.Register("BL.CTRequest", encCTWire, decCTWire)
	wire.Register("BL.CTToken", encCTWire, decCTWire)
	wire.Register("BL.Inquire",
		func(e *wire.Enc, m network.Message) {
			q := m.(inquireMsg)
			e.Varint(int64(q.R))
			e.Uvarint(q.Seq)
		},
		func(d *wire.Dec) network.Message { return inquireMsg{R: decResID(d), Seq: d.Uvarint()} })
	wire.Register("BL.ResToken",
		func(e *wire.Enc, m network.Message) { e.Varint(int64(m.(resTokenMsg).R)) },
		func(d *wire.Dec) network.Message { return resTokenMsg{R: decResID(d)} })

	ct := NewControlToken(6)
	ct.HasToken[1] = false
	ct.Last[1] = 3
	ct.Seq[1] = 2
	ct.HasToken[4] = false
	ct.Last[4] = 0
	ct.Seq[4] = 300
	wire.RegisterSamples(
		ctWire{M: naimitrehel.Msg{Type: naimitrehel.MsgRequest, Requester: 5}},
		ctWire{M: naimitrehel.Msg{Type: naimitrehel.MsgToken, Payload: ct}},
		inquireMsg{R: 7, Seq: 4},
		resTokenMsg{R: 2},
	)
}

func decResID(d *wire.Dec) resource.ID { return d.Res() }

func encCTWire(e *wire.Enc, m network.Message) {
	w := m.(ctWire)
	e.Uvarint(uint64(w.M.Type))
	e.Node(w.M.Requester)
	ct, ok := w.M.Payload.(*ControlToken)
	e.Bool(ok)
	if !ok {
		return
	}
	e.Uvarint(uint64(len(ct.HasToken)))
	for r := range ct.HasToken {
		e.Bool(ct.HasToken[r])
		e.Node(ct.Last[r])
		e.Uvarint(ct.Seq[r])
	}
}

func decCTWire(d *wire.Dec) network.Message {
	var w ctWire
	ty := d.Uvarint()
	if ty > uint64(naimitrehel.MsgToken) {
		d.Fail("naimitrehel message type %d out of range", ty)
		return w
	}
	w.M.Type = naimitrehel.MsgType(ty)
	w.M.Requester = d.Site()
	if !d.Bool() || d.Err() != nil {
		return w
	}
	n := d.Count()
	if d.Err() != nil {
		return w
	}
	// The control token carries one entry per resource; node code
	// indexes it by resource id, so under shape validation the length
	// must be exactly M.
	if _, m := d.Shape(); m > 0 && n != m {
		d.Fail("control token of %d entries in a cluster of %d resources", n, m)
		return w
	}
	if !d.Charge(n * 17) { // one bool + one NodeID + one uint64 per resource
		return w
	}
	ct := &ControlToken{
		HasToken: make([]bool, n),
		Last:     make([]network.NodeID, n),
		Seq:      make([]uint64, n),
	}
	for r := 0; r < n; r++ {
		ct.HasToken[r] = d.Bool()
		ct.Last[r] = d.Node()
		ct.Seq[r] = d.Uvarint()
	}
	w.M.Payload = ct
	return w
}
