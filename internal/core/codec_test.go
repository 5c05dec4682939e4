package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"
	"time"

	"nakika/internal/deploy"
	"nakika/internal/httpmsg"
	"nakika/internal/largeobject"
	"nakika/internal/lease"
	"nakika/internal/state"
	"nakika/internal/wire"
)

func TestRepForwardRoundTrip(t *testing.T) {
	reqs := []repForward{
		{},
		{Site: "s.example", Key: "k", Value: "v"},
		{Site: "s", Key: "binary \x00 key", Value: string([]byte{0, 255})},
	}
	for _, req := range reqs {
		got, err := decodeRepForward(encodeRepForward(req))
		if err != nil {
			t.Fatalf("decodeRepForward: %v", err)
		}
		if got != req {
			t.Fatalf("round trip: got %+v want %+v", got, req)
		}
	}
}

func TestRepRangeRoundTrip(t *testing.T) {
	req := repRangeReq{From: 12, To: 1 << 62, After: "s/k", Limit: 64}
	gotReq, err := decodeRepRangeReq(encodeRepRangeReq(req))
	if err != nil {
		t.Fatalf("decodeRepRangeReq: %v", err)
	}
	if gotReq != req {
		t.Fatalf("range req round trip: got %+v want %+v", gotReq, req)
	}

	resp := repRangeResp{
		Recs: []state.Rec{
			{Site: "a", Key: "k1", Ver: 1, Origin: "n1", Value: "v1"},
			{Site: "b", Key: "k2", Ver: 2, Origin: "n2", Delete: true},
		},
		More: true,
	}
	gotResp, err := decodeRepRangeResp(encodeRepRangeResp(resp))
	if err != nil {
		t.Fatalf("decodeRepRangeResp: %v", err)
	}
	if gotResp.More != resp.More || len(gotResp.Recs) != len(resp.Recs) {
		t.Fatalf("range resp round trip: got %+v want %+v", gotResp, resp)
	}
	for i := range resp.Recs {
		if gotResp.Recs[i] != resp.Recs[i] {
			t.Fatalf("rec %d: got %+v want %+v", i, gotResp.Recs[i], resp.Recs[i])
		}
	}
}

func TestOffloadRequestRoundTrip(t *testing.T) {
	req := httpmsg.MustRequest("GET", "http://site.example/resource")
	req.Header.Set("Accept", "text/html")
	req.ClientIP = "192.0.2.1"
	req.Received = time.Unix(0, 1754600000000000000)

	got, err := decodeOffloadRequest(encodeOffloadRequest(req))
	if err != nil {
		t.Fatalf("decodeOffloadRequest: %v", err)
	}
	if got.Method != req.Method || got.URL.String() != req.URL.String() || got.ClientIP != req.ClientIP {
		t.Fatalf("round trip: got %+v want %+v", got, req)
	}
}

// TestBinaryDecodersRequireMagic runs every self-describing binary decoder
// against payloads that do not start with the wire.Magic format-version
// byte — empty, the decoder's own encoding with the byte stripped or
// replaced, and a gob stream — and requires each to be rejected.
func TestBinaryDecodersRequireMagic(t *testing.T) {
	manifest := &largeobject.Manifest{Key: "GET http://example.org/big", Status: 200,
		TotalLen: 10, SegSize: 4, Fetched: time.Unix(1, 0)}
	rec := state.Rec{Site: "s", Key: "k", Ver: 3, Origin: "n1", Value: "v"}
	asErr := func(ok bool) error {
		if ok {
			return nil
		}
		return wire.ErrMalformed
	}
	decoders := []struct {
		name   string
		valid  []byte
		decode func([]byte) error
	}{
		{"state.DecodeRec", state.EncodeRec(rec), func(b []byte) error { _, err := state.DecodeRec(b); return err }},
		{"httpmsg.DecodeResponse", httpmsg.EncodeResponse(httpmsg.NewTextResponse(200, "ok")),
			func(b []byte) error { _, err := httpmsg.DecodeResponse(b); return err }},
		{"decodeRepForward", encodeRepForward(repForward{Site: "s", Key: "k", Value: "v"}),
			func(b []byte) error { _, err := decodeRepForward(b); return err }},
		{"decodeRepRangeReq", encodeRepRangeReq(repRangeReq{From: 1, To: 99, After: "user:a", Limit: 64}),
			func(b []byte) error { _, err := decodeRepRangeReq(b); return err }},
		{"decodeRepRangeResp", encodeRepRangeResp(repRangeResp{Recs: []state.Rec{rec}, More: true}),
			func(b []byte) error { _, err := decodeRepRangeResp(b); return err }},
		{"decodeLeaseReq", encodeLeaseReq(leaseReq{Site: "s", Name: "job", Holder: "node-1", Token: 7, TTL: 30}),
			func(b []byte) error { _, err := decodeLeaseReq(b); return err }},
		{"decodeLeaseFenced", encodeLeaseFenced(leaseFenced{Guard: "g", Holder: "node-1", Token: 7, Rec: rec}),
			func(b []byte) error { _, err := decodeLeaseFenced(b); return err }},
		{"decodeOffloadRequest", encodeOffloadRequest(httpmsg.MustRequest("GET", "http://site.example/r")),
			func(b []byte) error { _, err := decodeOffloadRequest(b); return err }},
		{"lease.Decode", []byte(lease.Encode(lease.Record{Holder: "node-1", Token: 7, Expires: 99})),
			func(b []byte) error { _, ok := lease.Decode(string(b)); return asErr(ok) }},
		{"largeobject.DecodeManifest", largeobject.EncodeManifest(manifest),
			func(b []byte) error { _, err := largeobject.DecodeManifest(b); return err }},
		{"largeobject.DecodeIndex", largeobject.EncodeIndex(&largeobject.Index{Manifest: manifest}),
			func(b []byte) error { _, err := largeobject.DecodeIndex(b); return err }},
		{"deploy.Decode", []byte(deploy.Encode(deploy.State{Active: 1, Bundles: []deploy.Bundle{{Gen: 1, Script: "x"}}})),
			func(b []byte) error { _, err := deploy.Decode(string(b)); return err }},
		{"deploy.DecodeSites", []byte(deploy.EncodeSites([]string{"a.example"})),
			func(b []byte) error { _, err := deploy.DecodeSites(string(b)); return err }},
	}
	var gobBytes bytes.Buffer
	if err := gob.NewEncoder(&gobBytes).Encode(repForward{Site: "s", Key: "k", Value: "v"}); err != nil {
		t.Fatal(err)
	}
	for _, d := range decoders {
		if err := d.decode(d.valid); err != nil {
			t.Fatalf("%s: own encoding rejected: %v", d.name, err)
		}
		body := d.valid[1:]
		if len(body) > 0 && body[0] == wire.Magic {
			t.Fatalf("%s: test payload body starts with Magic; pick another", d.name)
		}
		rows := []struct {
			name    string
			payload []byte
		}{
			{"empty", nil},
			{"magic stripped", body},
			{"foreign version byte", append([]byte{wire.Magic + 1}, body...)},
			{"gob", gobBytes.Bytes()},
		}
		for _, row := range rows {
			if err := d.decode(row.payload); !errors.Is(err, wire.ErrMalformed) {
				t.Errorf("%s(%s) = %v, want wire.ErrMalformed", d.name, row.name, err)
			}
		}
	}
}
