package cache

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
	"time"

	"nakika/internal/httpmsg"
)

// FuzzDiskEntryDecode feeds arbitrary bytes to the disk-tier entry decoder,
// both as found on disk (almost always a checksum mismatch) and re-framed
// under a valid CRC so the key, expiry and response parse behind the
// checksum is exercised too. Decoding may fail but must never panic, and an
// entry that decodes must re-encode to one that decodes the same way.
func FuzzDiskEntryDecode(f *testing.F) {
	resp := httpmsg.NewTextResponse(200, "cached body")
	resp.SetMaxAge(60)
	entry, err := encodeDiskEntry("GET http://example.org/page", time.Unix(1754600000, 0), resp)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(entry)
	f.Add(entry[4:]) // the payload alone: decodes once re-framed
	f.Add(entry[:len(entry)-3])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _, _ = decodeDiskEntry(data)
		framed := binary.BigEndian.AppendUint32(nil, crc32.Checksum(data, diskCRC))
		key, expires, resp, err := decodeDiskEntry(append(framed, data...))
		if err != nil {
			return
		}
		again, err := encodeDiskEntry(key, expires, resp)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		key2, expires2, resp2, err := decodeDiskEntry(again)
		if err != nil || key2 != key || !expires2.Equal(expires) ||
			resp2.Status != resp.Status || !bytes.Equal(resp2.Body, resp.Body) {
			t.Fatalf("re-decode: key %q->%q expires %v->%v status %d->%d (%v)",
				key, key2, expires, expires2, resp.Status, resp2.Status, err)
		}
	})
}
