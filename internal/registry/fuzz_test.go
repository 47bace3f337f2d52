package registry

import (
	"bytes"
	"testing"
)

// FuzzOpenRecord drives the on-disk record envelope with arbitrary bytes.
// openRecord must never panic; sealing any payload must open back to
// exactly that payload as format v2; and any input openRecord accepts as
// v2 must be exactly the envelope sealRecord writes for its payload — the
// footer has one spelling, so a damaged or re-spelled footer never opens.
//
// CI runs this as a short smoke (-fuzz with a bounded -fuzztime) on every
// push; longer local runs explore deeper.
func FuzzOpenRecord(f *testing.F) {
	payload := []byte(`{"meta":{"id":"wine-v1"},"model":{}}`)
	sealed := sealRecord(payload)
	f.Add(sealed)
	f.Add(payload)
	f.Add(sealed[:len(sealed)-3])
	f.Add(append(append([]byte{}, sealed...), 'x'))
	f.Add(bytes.ToUpper(sealed))
	f.Add(sealRecord(nil))
	f.Add([]byte(footerMarker + "v2 crc64=0000000000000000 len=0\n"))
	f.Add(sealRecord(sealed))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, format, err := openRecord(data)
		if err == nil && format == formatV2 && !bytes.Equal(sealRecord(p), data) {
			t.Fatalf("accepted v2 record %q does not re-seal to itself", data)
		}
		if err == nil && format == formatV1 && !bytes.Equal(p, data) {
			t.Fatalf("v1 record %q opened to a different payload %q", data, p)
		}
		got, format, err := openRecord(sealRecord(data))
		if err != nil || format != formatV2 || !bytes.Equal(got, data) {
			t.Fatalf("sealRecord(%q) opened to %q (format %v, err %v)", data, got, format, err)
		}
	})
}
