package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestVerifierRejectsCorruptedBodiesAndShiftedRanges(t *testing.T) {
	if err := selfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestMediaVerifierMatchesOrigin serves a generated range request from the
// media origin and checks that the verifier accepts the intact body and
// rejects one corrupted byte and the same range read one byte late.
func TestMediaVerifierMatchesOrigin(t *testing.T) {
	seq := mediaSequence(1)
	var r *genReq
	for i := range seq.reqs {
		if seq.reqs[i].kind == kRange && seq.reqs[i].obj > 0 {
			r = &seq.reqs[i]
			break
		}
	}
	if r == nil {
		t.Fatal("no range request on a non-zero object in the sequence")
	}
	site := mediaSite{host: mediaHost(r.obj), base: mediaBase(r.obj)}
	serve := func(from, to int64) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, r.url, nil)
		shifted := genReq{from: from, to: to}
		req.Header.Set("Range", shifted.rangeHeader())
		rec := httptest.NewRecorder()
		site.ServeHTTP(rec, req)
		rec.Header().Set("X-Na-Kika-Node", "edge-media")
		rec.Header().Set(seq.header, seq.headerValue)
		return rec
	}

	rec := serve(r.from, r.to)
	body := rec.Body.Bytes()
	if err := seq.verify(r, rec.Code, rec.Header(), body, "edge-media"); err != nil {
		t.Fatalf("intact range rejected: %v", err)
	}
	body[len(body)/3] ^= 0x20
	if seq.verify(r, rec.Code, rec.Header(), body, "edge-media") == nil {
		t.Fatal("corrupted range body accepted")
	}

	late := serve(r.from+1, r.to+1)
	late.Header().Set("Content-Range", rec.Header().Get("Content-Range"))
	if seq.verify(r, late.Code, late.Header(), late.Body.Bytes(), "edge-media") == nil {
		t.Fatal("range read one byte late accepted")
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for name, w := range workloads {
		a, b, c := w.generate(7).digest(), w.generate(7).digest(), w.generate(8).digest()
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", name, a)
		}
	}
}
