package state

import (
	"testing"
)

func TestRecRoundTrip(t *testing.T) {
	recs := []Rec{
		{},
		{Site: "a.example", Key: "k", Ver: 7, Origin: "n1", Value: "v"},
		{Site: "b.example", Key: "key with spaces", Ver: 1 << 60, Origin: "n2", Delete: true},
		{Site: "c", Key: "\x00\xff", Ver: 0, Origin: "", Value: string([]byte{0, 1, 2, 255})},
	}
	for _, rec := range recs {
		got, err := DecodeRec(EncodeRec(rec))
		if err != nil {
			t.Fatalf("DecodeRec(%v): %v", rec, err)
		}
		if got != rec {
			t.Fatalf("round trip: got %+v want %+v", got, rec)
		}
	}
}

func TestDecodeRecMalformed(t *testing.T) {
	cases := [][]byte{nil, {}, {0}, {0, 200}, {0, 5, 'a'}}
	for _, c := range cases {
		if _, err := DecodeRec(c); err == nil {
			t.Fatalf("DecodeRec(%v): expected error", c)
		}
	}
}
