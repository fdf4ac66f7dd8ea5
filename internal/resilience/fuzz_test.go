package resilience

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fuzzFloats derives a finite float64 slice from raw fuzz bytes
// (encoding/json rejects NaN/Inf, which a checkpoint never contains).
func fuzzFloats(data []byte, n int) []float64 {
	if len(data) == 0 {
		data = []byte{42}
	}
	out := make([]float64, n)
	for i := range out {
		var bits uint64
		for k := 0; k < 8; k++ {
			bits = bits<<8 | uint64(data[(8*i+k)%len(data)])
		}
		f := math.Float64frombits(bits)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			f = float64(bits%1000) / 7
		}
		out[i] = f
	}
	return out
}

// Save∘Load must be the identity on any well-formed checkpoint the
// fuzzer can derive — the round-trip half of the checkpoint contract.
func FuzzCheckpointRoundTrip(f *testing.F) {
	f.Add(uint8(3), int64(1), []byte("seed corpus"))
	f.Add(uint8(1), int64(-9), []byte{0xff, 0x00, 0x80, 0x7f, 0xf0})
	f.Add(uint8(9), int64(1<<40), []byte{})
	f.Fuzz(func(t *testing.T, nRaw uint8, seed int64, data []byte) {
		n := int(nRaw)%8 + 1
		ck := &Checkpoint{
			StepsDone:  int(nRaw),
			TotalSteps: int(nRaw) * 2,
			Dt:         1 + float64(nRaw)/3,
			Seed:       seed,
			Zs:         make([]int, n),
			Pos:        fuzzFloats(data, 3*n),
			Vel:        fuzzFloats(append(data, 7), 3*n),
			Masses:     fuzzFloats(append(data, 13), n),
		}
		for i := range ck.Zs {
			ck.Zs[i] = i%10 + 1
		}
		if len(data) > 4 {
			ck.Thermostat = &ThermostatState{TargetK: float64(data[0]), TauFs: float64(data[1]) + 1}
			ck.Warm = []WarmEntry{{
				Key: "0-1", Zs: ck.Zs,
				D:     &MatState{Rows: 1, Cols: 2, Data: fuzzFloats(data, 2)},
				Basis: "sto-3g", NBf: 2, NOcc: 1,
			}}
		}
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := Save(path, ck); err != nil {
			t.Fatalf("save: %v", err)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatalf("load after save: %v", err)
		}
		if !reflect.DeepEqual(ck, got) {
			t.Fatalf("round trip not identity:\nsaved  %+v\nloaded %+v", ck, got)
		}
		if _, err := got.State(); err != nil {
			t.Fatalf("state rebuild: %v", err)
		}
	})
}

// Load must never panic on arbitrary bytes — it either decodes a valid
// checkpoint or returns an error.
func FuzzLoadCheckpoint(f *testing.F) {
	f.Add([]byte(`{"magic":"fragmd-checkpoint","schema":1,"crc32c":0,"payload":{}}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte{0x00, 0xff, 0x7b, 0x7d})
	crc := make([]byte, 4)
	binary.LittleEndian.PutUint32(crc, 0xdeadbeef)
	f.Add(crc)
	f.Add(parentCheckpoint())
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "arbitrary.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := Load(path)
		if err == nil && ck == nil {
			t.Fatal("nil checkpoint with nil error")
		}
	})
}
