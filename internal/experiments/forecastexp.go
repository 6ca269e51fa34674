package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/sjtucitlab/gfs/internal/forecast"
	"github.com/sjtucitlab/gfs/internal/pricing"
)

// Figure10Row is one forecaster's accuracy (Fig. 10).
type Figure10Row struct {
	Model string
	forecast.Accuracy
	// TrainSeconds is wall-clock training time.
	TrainSeconds float64
}

// Figure10 trains OrgLinear and the six baselines on the synthetic
// org panel and scores them on held-out windows. Row order matches
// the paper's legend.
func Figure10(fc FcScale) ([]Figure10Row, error) {
	train, test := fc.Panel()
	models := fc.Models()
	var rows []Figure10Row
	for _, m := range models {
		start := time.Now()
		if err := m.Fit(train); err != nil {
			return nil, fmt.Errorf("experiments: figure10: %s: %w", m.Name(), err)
		}
		elapsed := time.Since(start).Seconds()
		rows = append(rows, Figure10Row{
			Model:        m.Name(),
			Accuracy:     forecast.Evaluate(m, test),
			TrainSeconds: elapsed,
		})
	}
	return rows, nil
}

// Models instantiates the Fig. 10 lineup at this scale.
func (f FcScale) Models() []forecast.Forecaster {
	return []forecast.Forecaster{
		forecast.NewOrgLinear(forecast.OrgLinearConfig{Epochs: f.LinearEpochs}),
		forecast.NewTransformer(f.DeepEpochs),
		forecast.NewInformer(f.DeepEpochs),
		forecast.NewAutoformer(f.DeepEpochs),
		forecast.NewFEDformer(f.DeepEpochs),
		forecast.NewDLinear(f.LinearEpochs),
		forecast.NewDeepAR(f.DeepEpochs),
	}
}

// FormatFigure10 renders the accuracy comparison.
func FormatFigure10(rows []Figure10Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %12s %10s %8s %9s\n",
		"Model", "MAE", "MSE", "RMSE", "MAPE", "Train(s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %10.3f %12.3f %10.3f %8.4f %9.2f\n",
			r.Model, r.MAE, r.MSE, r.RMSE, r.MAPE, r.TrainSeconds)
	}
	return b.String()
}

// Table7Row is one distributional model's quantile accuracy and
// training time (Table 7).
type Table7Row struct {
	Model        string
	MAQE95       float64
	MAQE90       float64
	TrainSeconds float64
}

// Table7 compares OrgLinear's quantile accuracy and training time
// against DeepAR (the strongest probabilistic baseline).
func Table7(fc FcScale) ([]Table7Row, error) {
	train, test := fc.Panel()
	models := []forecast.Distributional{
		forecast.NewDeepAR(fc.DeepEpochs),
		forecast.NewOrgLinear(forecast.OrgLinearConfig{Epochs: fc.LinearEpochs}),
	}
	var rows []Table7Row
	for _, m := range models {
		start := time.Now()
		if err := m.Fit(train); err != nil {
			return nil, fmt.Errorf("experiments: table7: %s: %w", m.Name(), err)
		}
		rows = append(rows, Table7Row{
			Model:        m.Name(),
			MAQE95:       forecast.MAQE(m, test, 0.95),
			MAQE90:       forecast.MAQE(m, test, 0.90),
			TrainSeconds: time.Since(start).Seconds(),
		})
	}
	return rows, nil
}

// FormatTable7 renders the quantile comparison.
func FormatTable7(rows []Table7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %12s %12s %14s\n", "Model", "0.95-MAQE", "0.9-MAQE", "Training(s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %12.3f %12.3f %14.2f\n", r.Model, r.MAQE95, r.MAQE90, r.TrainSeconds)
	}
	return b.String()
}

// MonthlyBenefit prices either measured Fig. 9 deltas or, when rows
// is nil, the paper's production deltas.
func MonthlyBenefit(rows []Figure9Row) (float64, string) {
	var deltas []pricing.PoolDelta
	if rows == nil {
		deltas = pricing.PaperDeltas()
	} else {
		// Pool sizes follow Table 1 proportions.
		gpus := map[string]int{"A10": 2000, "A100": 3200, "A800": 400, "H800": 1600}
		for _, r := range rows {
			deltas = append(deltas, pricing.PoolDelta{
				Model: r.Model, GPUs: gpus[r.Model],
				RateBefore: r.AllocPre, RateAfter: r.AllocPost,
			})
		}
	}
	return pricing.MonthlyBenefit(deltas), pricing.Format(deltas)
}
