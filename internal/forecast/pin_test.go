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

	olCfg := DefaultOrgLinearConfig()
	olCfg.Epochs = 3
	dlCfg := DefaultDLinearConfig()
	dlCfg.Epochs = 3
	trCfg := DefaultTransformerConfig()
	trCfg.Epochs, trCfg.Dim, trCfg.FFDim = 1, 8, 16
	infCfg := trCfg
	infCfg.Variant = ProbSparseAttention
	afCfg := DefaultAutoformerConfig()
	afCfg.Epochs, afCfg.Dim = 1, 8
	fedCfg := DefaultFEDformerConfig()
	fedCfg.Epochs, fedCfg.Dim = 1, 8
	darCfg := DefaultDeepARConfig()
	darCfg.Epochs, darCfg.Hidden = 1, 8

	for _, tc := range []struct {
		m               Forecaster
		params, outputs string
	}{
		{NewOrgLinear(olCfg),
			"306efe5f68c675e453c2abd4a31d86afd98397ee5e633ff8327d1353dab35910",
			"5fc37b71349b7ad1f465a9d6fe9110cb3e505668b7428f3894a788b3a859802d"},
		{NewDLinear(dlCfg),
			"11e416849eb6b725f20c51b7f1fcd82adf54f2ff165fefde14a9640777a35eae",
			"c019bd21edcf6ff17ebfed2d00f0f6cb7612349b5b6b60af3634daaf8371627a"},
		{NewTransformer(trCfg),
			"c4a9f1058161c8c6f1c2143d94785483190ff6707d3361852d0dec9498bfbbaa",
			"e8bc75f9b1df63465c6cf032c4d86676ce2ef173bec4364b0bfd7dc0c733fed4"},
		{NewTransformer(infCfg),
			"1ec6b1baa2121cb723bcc19a46230ac73df3534c318ad1393a4cf8fe9565a194",
			"a147c24a640a292cea3266952399a4eff698d5efb19ad865cdad2fc97e64d60a"},
		{NewAutoformer(afCfg),
			"a689f03c17303da75c29ba52810e7ccde8703a16b8309c7e369d66e922e4745a",
			"67d12a2b0e5deb77521932f4565c0c93bce3affc137358efc6634922e138412d"},
		{NewFEDformer(fedCfg),
			"66a89138261b5a31b701718077e2049bd0417896f0fec14b9801b084db930144",
			"87d57ba2df5c1e3d311bb252f25eef5d9a7f551e56027359663b43772149a941"},
		{NewDeepAR(darCfg),
			"689738ed65dbcbfa1661aa0f6930890ccfc6a1b031f9dd430bc8b97d6e0a4b18",
			"ab0030988f732be8a692227ded97956063821f8d0152d19dbe3c4fd953b09a23"},
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
