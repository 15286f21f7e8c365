// Package wsock is a minimal RFC 6455 WebSocket implementation — server
// upgrade, client dial, frame codec and a broadcast hub. The paper's
// dashboard receives reduced IoCs over "specific web sockets, developed
// relying on the socket.io library" (§IV-A); this package provides the
// equivalent push channel using only the standard library.
package wsock

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Opcode identifies a WebSocket frame type.
type Opcode byte

// Frame opcodes from RFC 6455 §5.2.
const (
	OpContinuation Opcode = 0x0
	OpText         Opcode = 0x1
	OpBinary       Opcode = 0x2
	OpClose        Opcode = 0x8
	OpPing         Opcode = 0x9
	OpPong         Opcode = 0xA
)

// ErrClosed is returned once the peer has sent (or we have sent) a close
// frame.
var ErrClosed = errors.New("wsock: connection closed")

const maxPayload = 32 << 20 // 32 MiB

// frame is one wire frame.
type frame struct {
	fin     bool
	opcode  Opcode
	payload []byte
}

// readFrame parses a single frame, unmasking if needed.
func readFrame(r io.Reader) (frame, error) {
	return readFrameInto(r, nil)
}

// ReadFrameInto decodes the next frame from r, reusing buf for the
// payload when it is large enough (a fresh slice is allocated otherwise).
// Unlike ReadMessage it performs no control-frame handling or
// reassembly — it is the allocation-free read path for clients that
// consume server broadcasts at large connection counts, such as tests.
// The returned payload aliases buf and is only valid until the next call.
func ReadFrameInto(r io.Reader, buf []byte) (Opcode, []byte, error) {
	f, err := readFrameInto(r, buf)
	if err != nil {
		return 0, nil, err
	}
	return f.opcode, f.payload, nil
}

func readFrameInto(r io.Reader, buf []byte) (frame, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	f := frame{
		fin:    hdr[0]&0x80 != 0,
		opcode: Opcode(hdr[0] & 0x0f),
	}
	if hdr[0]&0x70 != 0 {
		return frame{}, fmt.Errorf("wsock: reserved bits set")
	}
	masked := hdr[1]&0x80 != 0
	length := uint64(hdr[1] & 0x7f)
	switch length {
	case 126:
		var ext [2]byte
		if _, err := io.ReadFull(r, ext[:]); err != nil {
			return frame{}, err
		}
		length = uint64(binary.BigEndian.Uint16(ext[:]))
	case 127:
		var ext [8]byte
		if _, err := io.ReadFull(r, ext[:]); err != nil {
			return frame{}, err
		}
		length = binary.BigEndian.Uint64(ext[:])
	}
	if length > maxPayload {
		return frame{}, fmt.Errorf("wsock: frame of %d bytes exceeds limit", length)
	}
	var mask [4]byte
	if masked {
		if _, err := io.ReadFull(r, mask[:]); err != nil {
			return frame{}, err
		}
	}
	if uint64(cap(buf)) >= length {
		f.payload = buf[:length]
	} else {
		f.payload = make([]byte, length)
	}
	if _, err := io.ReadFull(r, f.payload); err != nil {
		return frame{}, err
	}
	if masked {
		for i := range f.payload {
			f.payload[i] ^= mask[i%4]
		}
	}
	return f, nil
}

// writeFrame emits a frame, masking the payload when mask is true (clients
// must mask, servers must not).
func writeFrame(w io.Writer, f frame, mask bool) error {
	var hdr [14]byte
	n := 2
	hdr[0] = byte(f.opcode)
	if f.fin {
		hdr[0] |= 0x80
	}
	length := len(f.payload)
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
	payload := f.payload
	if mask {
		hdr[1] |= 0x80
		var key [4]byte
		if _, err := rand.Read(key[:]); err != nil {
			return fmt.Errorf("wsock: mask key: %w", err)
		}
		copy(hdr[n:n+4], key[:])
		n += 4
		payload = make([]byte, length)
		for i, b := range f.payload {
			payload[i] = b ^ key[i%4]
		}
	}
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}
