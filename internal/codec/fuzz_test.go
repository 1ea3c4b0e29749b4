package codec_test

import (
	"bytes"
	"errors"
	"testing"

	"rdlroute/internal/codec"
)

// FuzzDecodeDesign holds the design decoder to its contract on arbitrary
// bytes: it either fails with a structured *codec.Error or returns a
// design that (a) passes Validate — the decoder promises validated
// output — and (b) re-encodes byte-stably through a second round-trip.
// Seed corpus: testdata/fuzz/FuzzDecodeDesign (valid documents from the
// qa generator plus corrupt variants).
func FuzzDecodeDesign(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("{"))
	f.Add([]byte(`{"schema":"rdl-design/v1"}`))
	f.Add([]byte(`{"schema":"rdl-design/v9","name":"x"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := codec.DecodeDesign(bytes.NewReader(data))
		if err != nil {
			var ce *codec.Error
			if !errors.As(err, &ce) {
				t.Fatalf("decode error is not a *codec.Error: %v", err)
			}
			return
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("decoder returned an invalid design: %v", err)
		}
		var b1 bytes.Buffer
		if err := codec.EncodeDesign(&b1, d); err != nil {
			t.Fatalf("re-encoding a decoded design: %v", err)
		}
		d2, err := codec.DecodeDesign(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("decoding our own encoding: %v", err)
		}
		var b2 bytes.Buffer
		if err := codec.EncodeDesign(&b2, d2); err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatal("Encode(Decode(Encode(d))) differs from Encode(d)")
		}
	})
}

// FuzzDecodeOptions is the same contract for the options document:
// structured errors on garbage, byte-stable round-trips on success.
// Seed corpus: testdata/fuzz/FuzzDecodeOptions.
func FuzzDecodeOptions(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"schema":"rdl-options/v1"}`))
	f.Add([]byte(`{"schema":"rdl-options/v1","net_order":"nonsense"}`))
	// Keys of removed options decode as no-ops, whatever their value.
	f.Add([]byte(`{"schema":"rdl-options/v1","pitch":-5}`))
	f.Add([]byte(`{"schema":"rdl-options/v1","order_portfolio":8}`))
	f.Add([]byte(`{"schema":"rdl-options/v1","order_portfolio":99}`))
	f.Add([]byte(`{"schema":"rdl-options/v1","order_portfolio":-3}`))
	f.Add([]byte(`{"schema":"rdl-options/v1","net_order":"shuffle10"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		opts, err := codec.DecodeOptions(bytes.NewReader(data))
		if err != nil {
			var ce *codec.Error
			if !errors.As(err, &ce) {
				t.Fatalf("decode error is not a *codec.Error: %v", err)
			}
			return
		}
		var b1 bytes.Buffer
		if err := codec.EncodeOptions(&b1, opts); err != nil {
			t.Fatalf("re-encoding decoded options: %v", err)
		}
		opts2, err := codec.DecodeOptions(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("decoding our own encoding: %v", err)
		}
		var b2 bytes.Buffer
		if err := codec.EncodeOptions(&b2, opts2); err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatal("Encode(Decode(Encode(o))) differs from Encode(o)")
		}
	})
}

// FuzzDecodeDesignDelta is the same contract for the design-delta
// document: arbitrary bytes either fail with a structured *codec.Error or
// decode to a delta whose re-encoding is byte-stable through a second
// round-trip. Seed corpus: testdata/fuzz/FuzzDecodeDesignDelta.
func FuzzDecodeDesignDelta(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("{"))
	f.Add([]byte(`{"schema":"rdl-design-delta/v1"}`))
	f.Add([]byte(`{"schema":"rdl-design-delta/v2"}`))
	f.Add([]byte(`{"schema":"rdl-design-delta/v1","remove_nets":[-1]}`))
	f.Add([]byte(`{"schema":"rdl-design-delta/v1","add_nets":[{"id":1,"p1":{"kind":"laser","index":0},"p2":{"kind":"bump","index":0}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dl, err := codec.DecodeDesignDelta(bytes.NewReader(data))
		if err != nil {
			var ce *codec.Error
			if !errors.As(err, &ce) {
				t.Fatalf("decode error is not a *codec.Error: %v", err)
			}
			return
		}
		var b1 bytes.Buffer
		if err := codec.EncodeDesignDelta(&b1, dl); err != nil {
			t.Fatalf("re-encoding a decoded delta: %v", err)
		}
		dl2, err := codec.DecodeDesignDelta(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("decoding our own encoding: %v", err)
		}
		var b2 bytes.Buffer
		if err := codec.EncodeDesignDelta(&b2, dl2); err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatal("Encode(Decode(Encode(dl))) differs from Encode(dl)")
		}
	})
}
