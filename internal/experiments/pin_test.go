package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"testing"
)

// TestTrainEstimatorPinned pins the OrgLinear GDE that TrainEstimator
// fits, at SmallScale and at PaperScale (the GDE behind the paper_gfs,
// prod10k_contended and sweep_table5 benchmark digests): the SHA-256
// of every trained parameter's float64 bits, and of one forecast per
// organization from the seeded demand history.
func TestTrainEstimatorPinned(t *testing.T) {
	for _, tc := range []struct {
		name              string
		scale             SimScale
		params, forecasts string
	}{
		{"SmallScale", SmallScale(),
			"f925edb348a86f585961a946a4028e0e9ff45df36d8b4075301c74f16773cae4",
			"0332fa1cdc59b7b6cd1b240cc39926408c4b526377b9899c8f61aaa26ecdcd63"},
		{"PaperScale", PaperScale(),
			"14feed19e288c1bd50bcb4c3f3b1606488216256c36a40b4180ecefa6c69e76f",
			"30412d1ce9fa4a45e9d9e06c8c94b88667608a831ef7d361053e7a7365f4ec4b"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.name == "PaperScale" {
				t.Skip("PaperScale training takes about half a second")
			}
			est, err := tc.scale.TrainEstimator()
			if err != nil {
				t.Fatal(err)
			}
			// The parameters are unexported two packages down, so
			// read them by reflection: est.model.params[i].Data.
			params := reflect.ValueOf(est).Elem().FieldByName("model").Elem().Elem().FieldByName("params")
			if params.Len() == 0 {
				t.Fatal("no trained parameters")
			}
			ph := sha256.New()
			var b [8]byte
			for i := 0; i < params.Len(); i++ {
				data := params.Index(i).Elem().FieldByName("Data")
				for j := 0; j < data.Len(); j++ {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(data.Index(j).Float()))
					ph.Write(b[:])
				}
			}
			fh := sha256.New()
			history := tc.scale.demandHistory()
			for _, o := range orgNames {
				mu, sigma := est.Forecast(o, history[o], tc.scale.TrainDays*24)
				writeBits(fh, mu)
				writeBits(fh, sigma)
			}
			if got := hex.EncodeToString(ph.Sum(nil)); got != tc.params {
				t.Errorf("parameter digest %s, pinned %s", got, tc.params)
			}
			if got := hex.EncodeToString(fh.Sum(nil)); got != tc.forecasts {
				t.Errorf("forecast digest %s, pinned %s", got, tc.forecasts)
			}
		})
	}
}

// writeBits feeds each value's IEEE-754 bits to h, little-endian.
func writeBits(h hash.Hash, xs []float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}
