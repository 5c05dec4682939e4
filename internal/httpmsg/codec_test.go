package httpmsg

import (
	"bytes"
	"net/http"
	"reflect"
	"testing"
	"time"

	"nakika/internal/wire"
)

func TestResponseCodecRoundTrip(t *testing.T) {
	resp := NewResponse(200)
	resp.Header.Set("Content-Type", "text/html; charset=utf-8")
	resp.Header.Add("X-Multi", "a")
	resp.Header.Add("X-Multi", "b")
	resp.SetBodyString("<html>hello</html>")
	resp.Generated = true
	resp.FromCache = true
	resp.Via = "edge-3"
	resp.Fetched = time.Unix(0, 1754600000000000000)

	got, err := DecodeResponse(EncodeResponse(resp))
	if err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	if got.Status != resp.Status || got.Generated != resp.Generated ||
		got.FromCache != resp.FromCache || got.Via != resp.Via {
		t.Fatalf("round trip: got %+v want %+v", got, resp)
	}
	if !bytes.Equal(got.Body, resp.Body) {
		t.Fatalf("body: got %q want %q", got.Body, resp.Body)
	}
	if !reflect.DeepEqual(got.Header, resp.Header) {
		t.Fatalf("header: got %v want %v", got.Header, resp.Header)
	}
	if got.Fetched.UnixNano() != resp.Fetched.UnixNano() {
		t.Fatalf("fetched: got %v want %v", got.Fetched, resp.Fetched)
	}
}

func TestResponseCodecEmptyFields(t *testing.T) {
	resp := &Response{Status: 404}
	got, err := DecodeResponse(EncodeResponse(resp))
	if err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	if got.Status != 404 || got.Header != nil || got.Body != nil || !got.Fetched.IsZero() {
		t.Fatalf("empty round trip: got %+v", got)
	}
}

func TestDecodeResponseMalformed(t *testing.T) {
	cases := [][]byte{nil, {}, {wire.Magic}, {wire.Magic, 200, 200}}
	for _, c := range cases {
		if _, err := DecodeResponse(c); err == nil {
			t.Fatalf("DecodeResponse(%v): expected error", c)
		}
	}
}

func TestRequestCodecRoundTrip(t *testing.T) {
	req := MustRequest("POST", "http://site.example/path?q=1")
	req.Header.Set("Accept", "text/html")
	req.Body = []byte("payload")
	req.ClientIP = "10.0.0.9"
	req.Received = time.Unix(0, 1754600000000000000)
	req.Redirected = true

	r := wire.Reader{Buf: EncodeRequest(req), Off: 1}
	got, err := ReadRequest(&r)
	if err != nil {
		t.Fatalf("ReadRequest: %v", err)
	}
	if got.Method != req.Method || got.URL.String() != req.URL.String() ||
		got.ClientIP != req.ClientIP || got.Redirected != req.Redirected {
		t.Fatalf("round trip: got %+v want %+v", got, req)
	}
	if !bytes.Equal(got.Body, req.Body) || !reflect.DeepEqual(got.Header, req.Header) {
		t.Fatalf("body/header mismatch: got %+v", got)
	}
	if got.Received.UnixNano() != req.Received.UnixNano() {
		t.Fatalf("received: got %v want %v", got.Received, req.Received)
	}
}

func TestHeaderCodecDeterministic(t *testing.T) {
	h := http.Header{"B": {"2"}, "A": {"1"}, "C": {"3", "4"}}
	a := AppendHeader(nil, h)
	b := AppendHeader(nil, h)
	if !bytes.Equal(a, b) {
		t.Fatal("header encoding not deterministic")
	}
	r := wire.NewReader(a)
	got, err := ReadHeader(r)
	if err != nil {
		t.Fatalf("ReadHeader: %v", err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatalf("header round trip: got %v want %v", got, h)
	}
}
