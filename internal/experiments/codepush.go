package experiments

import "aim/internal/scenarios"

// CodePushSummary is the §VI-D reading of a codepush scenario run: what the
// code push cost, what the periodic AIM run that followed it bought back,
// and how many queries it improved.
type CodePushSummary struct {
	// SteadyCPU, ShiftedCPU and RetunedCPU are mean per-window CPU seconds:
	// the tuned windows before the push, the window the push landed in, and
	// the windows between its fix and the data surge.
	SteadyCPU, ShiftedCPU, RetunedCPU float64
	// NewIndexes and ShadowAccepted describe the tuning cycle that closed
	// the shifted window.
	NewIndexes     int
	ShadowAccepted bool
	// ImprovedQueries counts the queries the gate's replay measured at least
	// 5% cheaper under the new indexes, OrderOfMagnitude those ≥10× cheaper.
	ImprovedQueries  int
	OrderOfMagnitude int
	// CPUSavingFraction is (shifted - retuned) / shifted — the paper reports
	// ~2% at fleet level; a single shifted database shows much more.
	CPUSavingFraction float64
}

// SummarizeCodePush reads the summary off a RunScenario result of the
// codepush scenario (zero when the run stopped before the push was fixed).
func SummarizeCodePush(res *ScenarioResult) CodePushSummary {
	push, surge := scenarios.CodePushCycle, scenarios.CodeSurgeCycle
	if surge > len(res.WindowCPU) {
		surge = len(res.WindowCPU)
	}
	if surge < push+2 {
		return CodePushSummary{}
	}
	mean := func(xs []float64) float64 {
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	s := CodePushSummary{
		SteadyCPU:  mean(res.WindowCPU[1:push]),
		ShiftedCPU: res.WindowCPU[push],
		RetunedCPU: mean(res.WindowCPU[push+1 : surge]),
	}
	if s.ShiftedCPU > 0 {
		s.CPUSavingFraction = (s.ShiftedCPU - s.RetunedCPU) / s.ShiftedCPU
	}
	if rep := res.Accepted[push]; rep != nil {
		s.ShadowAccepted = true
		s.NewIndexes = len(rep.AcceptedIndexes)
		for _, o := range rep.Outcomes {
			if o.BeforeCPU > 0 && o.AfterCPU < o.BeforeCPU*0.95 {
				s.ImprovedQueries++
				if o.AfterCPU <= o.BeforeCPU/10 {
					s.OrderOfMagnitude++
				}
			}
		}
	}
	return s
}
