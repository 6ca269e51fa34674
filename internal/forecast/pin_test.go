package forecast

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"github.com/sjtucitlab/gfs/internal/tensor"
)

// TestTrainedParamsPinned pins the exact result of training every
// trainable model on the synthetic fixture: the SHA-256 of every
// trained parameter's float64 bits, and of the Predict (and, for the
// distributional models, PredictDist) outputs on the test windows.
// Training is float64 arithmetic in a fixed order, so a change to the
// training loop, the example preparation or a layer that moves one bit
// fails here.
func TestTrainedParamsPinned(t *testing.T) {
	train, test := syntheticExamples(t, 48, 6)

	for _, tc := range []struct {
		m               Forecaster
		params, outputs string
	}{
		{NewOrgLinear(OrgLinearConfig{Epochs: 3}),
			"306efe5f68c675e453c2abd4a31d86afd98397ee5e633ff8327d1353dab35910",
			"5fc37b71349b7ad1f465a9d6fe9110cb3e505668b7428f3894a788b3a859802d"},
		{NewDLinear(3),
			"11e416849eb6b725f20c51b7f1fcd82adf54f2ff165fefde14a9640777a35eae",
			"c019bd21edcf6ff17ebfed2d00f0f6cb7612349b5b6b60af3634daaf8371627a"},
		{NewTransformer(1),
			"d1bd3c14339fc85f133ad00407fbfb836f4bbb1b9ec1c0f451f10e59ebcc30e0",
			"3394eb6c553e15d15aee8888395c869e06030f2931fa0ec6d85e66c418bc4284"},
		{NewInformer(1),
			"096f30560fc43b43682028c4341e6a6af03943df5dd58965eb36fca762ceea2a",
			"49558b2588a5520fd0000d27aeb0dcca5302eaff279168ccb35964eb41ef7285"},
		{NewAutoformer(1),
			"32311576de257c4e4ba55e4120484931b44237655830465e5618fd395cc892ce",
			"664055779277cf2f548a58647db085f6e3f36cd1a59195e0e06c77712ca86f4c"},
		{NewFEDformer(1),
			"2104d46f1a9bfdfe9d4f2cc1cfded564762a6cd206924ff45dd41acc2d7ca868",
			"3b37c6c7900addbe972d51a9af3d3f53a60d942ea95bedf477ea015d74a68c0d"},
		{NewDeepAR(1),
			"99df9c6db174bcef994511d0379cfde23143be10cba3c404f65a7f5968bf9263",
			"cae4e3d5b388eb5ccfef40759e8ddf30a81bc3b449659f33919df9c0e0f1cb26"},
	} {
		t.Run(tc.m.Name(), func(t *testing.T) {
			if err := tc.m.Fit(train); err != nil {
				t.Fatal(err)
			}
			params := trainedParams(tc.m)
			if len(params) == 0 {
				t.Fatal("no trained parameters")
			}
			ph := sha256.New()
			for _, p := range params {
				writeBits(ph, p.Data)
			}
			oh := sha256.New()
			for _, ex := range test {
				writeBits(oh, tc.m.Predict(ex))
				if d, ok := tc.m.(Distributional); ok {
					mu, sigma := d.PredictDist(ex)
					writeBits(oh, mu)
					writeBits(oh, sigma)
				}
			}
			if got := hex.EncodeToString(ph.Sum(nil)); got != tc.params {
				t.Errorf("parameter digest %s, pinned %s", got, tc.params)
			}
			if got := hex.EncodeToString(oh.Sum(nil)); got != tc.outputs {
				t.Errorf("output digest %s, pinned %s", got, tc.outputs)
			}
		})
	}
}

// trainedParams returns a fitted model's parameter tensors.
func trainedParams(m Forecaster) []*tensor.Tensor {
	switch m := m.(type) {
	case *OrgLinear:
		return m.params
	case *DLinear:
		return m.params
	case *Transformer:
		return m.params
	case *Autoformer:
		return m.params
	case *FEDformer:
		return m.params
	case *DeepAR:
		return m.params
	}
	return nil
}

// writeBits feeds each value's IEEE-754 bits to h, little-endian.
func writeBits(h hash.Hash, xs []float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}
