package transport

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Wire format: every frame is a 4-byte big-endian length followed by that
// many payload bytes. A request payload is
//
//	str(from) str(to) str(type) str(key) uvarint(nargs) str(arg)... bytes(body)
//
// and a reply payload is
//
//	byte(status) — 0 ok, 1 remote error
//	ok:    str(type) str(key) uvarint(nargs) str(arg)... bytes(body)
//	error: str(message)
//
// where str and bytes are uvarint-length-prefixed byte strings. The frame
// cap bounds memory taken by a single message on either side.

// maxFrame bounds a single wire frame (16 MiB): larger cache bodies are
// refused rather than buffered.
const maxFrame = 16 << 20

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBytes(buf []byte, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

type wireReader struct {
	buf []byte
	off int
}

func (r *wireReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("transport: malformed frame: bad uvarint")
	}
	r.off += n
	return v, nil
}

func (r *wireReader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.buf)-r.off) {
		return nil, fmt.Errorf("transport: malformed frame: truncated field")
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

func (r *wireReader) string() (string, error) {
	b, err := r.bytes()
	return string(b), err
}

// appendRequest appends a request frame payload (without the frame length).
func appendRequest(buf []byte, from, to string, msg Message) []byte {
	buf = appendString(buf, from)
	buf = appendString(buf, to)
	buf = appendString(buf, msg.Type)
	buf = appendString(buf, msg.Key)
	buf = binary.AppendUvarint(buf, uint64(len(msg.Args)))
	for _, a := range msg.Args {
		buf = appendString(buf, a)
	}
	buf = appendBytes(buf, msg.Body)
	// The trace id is a trailing optional field: absent when zero, so
	// untraced frames stay byte-identical to the pre-trace protocol, and
	// decoders that predate it (which stop after the body) skip it.
	if msg.Trace != 0 {
		buf = binary.AppendUvarint(buf, msg.Trace)
	}
	return buf
}

// decodeRequest parses a request frame payload.
func decodeRequest(payload []byte) (from, to string, msg Message, err error) {
	r := &wireReader{buf: payload}
	if from, err = r.string(); err != nil {
		return
	}
	if to, err = r.string(); err != nil {
		return
	}
	if msg.Type, err = r.string(); err != nil {
		return
	}
	if msg.Key, err = r.string(); err != nil {
		return
	}
	nargs, err2 := r.uvarint()
	if err2 != nil {
		err = err2
		return
	}
	if nargs > uint64(len(payload)) { // cheap sanity bound before allocating
		err = fmt.Errorf("transport: malformed frame: arg count %d", nargs)
		return
	}
	for i := uint64(0); i < nargs; i++ {
		var a string
		if a, err = r.string(); err != nil {
			return
		}
		msg.Args = append(msg.Args, a)
	}
	var body []byte
	if body, err = r.bytes(); err != nil {
		return
	}
	if len(body) > 0 {
		msg.Body = append([]byte(nil), body...)
	}
	// Optional trailing trace id (see appendRequest). A malformed tail is
	// ignored rather than rejected: the request itself decoded fine.
	if r.off < len(payload) {
		if tr, terr := r.uvarint(); terr == nil {
			msg.Trace = tr
		}
	}
	return
}

// appendReply appends a reply frame payload.
func appendReply(buf []byte, msg Message, remoteErr error) []byte {
	if remoteErr != nil {
		buf = append(buf, 1)
		return appendString(buf, remoteErr.Error())
	}
	buf = append(buf, 0)
	buf = appendString(buf, msg.Type)
	buf = appendString(buf, msg.Key)
	buf = binary.AppendUvarint(buf, uint64(len(msg.Args)))
	for _, a := range msg.Args {
		buf = appendString(buf, a)
	}
	buf = appendBytes(buf, msg.Body)
	return buf
}

// decodeReply parses a reply frame payload.
func decodeReply(payload []byte) (Message, error) {
	if len(payload) == 0 {
		return Message{}, fmt.Errorf("transport: malformed frame: empty reply")
	}
	r := &wireReader{buf: payload[1:]}
	if payload[0] != 0 {
		text, err := r.string()
		if err != nil {
			return Message{}, err
		}
		return Message{}, remoteError{msg: text}
	}
	var msg Message
	var err error
	if msg.Type, err = r.string(); err != nil {
		return Message{}, err
	}
	if msg.Key, err = r.string(); err != nil {
		return Message{}, err
	}
	nargs, err := r.uvarint()
	if err != nil {
		return Message{}, err
	}
	if nargs > uint64(len(payload)) {
		return Message{}, fmt.Errorf("transport: malformed frame: arg count %d", nargs)
	}
	for i := uint64(0); i < nargs; i++ {
		var a string
		if a, err = r.string(); err != nil {
			return Message{}, err
		}
		msg.Args = append(msg.Args, a)
	}
	body, err := r.bytes()
	if err != nil {
		return Message{}, err
	}
	if len(body) > 0 {
		msg.Body = append([]byte(nil), body...)
	}
	return msg, nil
}

// writeFrame writes one length-prefixed frame.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("transport: frame too large (%d bytes)", len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one length-prefixed frame.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame too large (%d bytes)", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
