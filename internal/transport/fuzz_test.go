package transport

import (
	"errors"
	"reflect"
	"testing"
)

// FuzzTransportFrames feeds arbitrary bytes to every decoder the TCP
// listener and the mux reader run on peer-controlled frames: the handshake
// check, the mux frame splitter, and the request and reply payload
// decoders. They may reject the bytes but must never panic, and a payload
// that decodes must re-encode to one that decodes to the same message.
func FuzzTransportFrames(f *testing.F) {
	msg := Message{Type: "rep.get", Key: "k", Args: []string{"a", ""}, Body: []byte("body"), Trace: 7}
	f.Add(helloFrame())
	f.Add(helloAckFrame())
	f.Add(appendRequest(nil, "node-a", "node-b", msg))
	f.Add(appendRequest(appendMuxHeader(nil, muxReq, 42), "node-a", "node-b", msg))
	f.Add(appendReply(appendMuxHeader(nil, muxReply, 42), msg, nil))
	f.Add(appendReply(nil, Message{}, errors.New("boom")))
	f.Add([]byte{muxMagic})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = isMuxHello(data)
		checkRequest(t, data)
		checkReply(t, data)
		if kind, _, inner, ok := parseMuxFrame(data); ok {
			switch kind {
			case muxReq:
				checkRequest(t, inner)
			case muxReply:
				checkReply(t, inner)
			}
		}
	})
}

func checkRequest(t *testing.T, payload []byte) {
	from, to, msg, err := decodeRequest(payload)
	if err != nil {
		return
	}
	from2, to2, msg2, err := decodeRequest(appendRequest(nil, from, to, msg))
	if err != nil || from2 != from || to2 != to || !reflect.DeepEqual(msg2, msg) {
		t.Fatalf("request re-encode: %q->%q %+v became %q->%q %+v (%v)", from, to, msg, from2, to2, msg2, err)
	}
}

func checkReply(t *testing.T, payload []byte) {
	msg, err := decodeReply(payload)
	if err != nil {
		return
	}
	msg2, err := decodeReply(appendReply(nil, msg, nil))
	if err != nil || !reflect.DeepEqual(msg2, msg) {
		t.Fatalf("reply re-encode: %+v became %+v (%v)", msg, msg2, err)
	}
}
