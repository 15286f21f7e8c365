package wsock

import "encoding/binary"

// PreparedFrame is a complete server-to-client WebSocket text frame — header
// and payload assembled once into a single contiguous byte slice — that
// can be written verbatim to any number of connections. Server frames are
// never masked (RFC 6455 §5.1), so the same bytes are shareable across
// every client of a broadcast: one JSON encode plus one frame assembly
// per message, regardless of fan-out width.
type PreparedFrame struct {
	data       []byte
	payloadOff int
}

// PrepareText assembles a text frame for broadcast. The payload is copied
// once; the caller may reuse its buffer afterwards.
func PrepareText(payload []byte) *PreparedFrame {
	var hdr [10]byte
	hdr[0] = 0x80 | byte(OpText) // FIN + opcode
	n := 2
	length := len(payload)
	switch {
	case length < 126:
		hdr[1] = byte(length)
	case length <= 0xffff:
		hdr[1] = 126
		binary.BigEndian.PutUint16(hdr[2:4], uint16(length))
		n = 4
	default:
		hdr[1] = 127
		binary.BigEndian.PutUint64(hdr[2:10], uint64(length))
		n = 10
	}
	data := make([]byte, n+length)
	copy(data, hdr[:n])
	copy(data[n:], payload)
	return &PreparedFrame{data: data, payloadOff: n}
}

// Payload returns the payload portion of the prepared frame. Callers must
// treat it as immutable.
func (pf *PreparedFrame) Payload() []byte { return pf.data[pf.payloadOff:] }

// Len reports the total wire length of the frame.
func (pf *PreparedFrame) Len() int { return len(pf.data) }
