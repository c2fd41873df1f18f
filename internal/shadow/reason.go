package shadow

// ReasonCode is the machine-readable verdict classification of one shadow
// validation. Report.Reason keeps the human-facing sentence; the code is
// what /statusz, the audit journal and fleet dashboards consume — stable
// across wording changes and greppable. Every verdict carries a code,
// accepted ones included (the old free-text scheme only explained
// rejections, which made accepted runs unauditable).
type ReasonCode string

const (
	// CodeAccepted: the gate equations (Eq. 2-4) all passed.
	CodeAccepted ReasonCode = "accepted"
	// CodeNoCandidates: the caller passed an empty recommendation.
	CodeNoCandidates ReasonCode = "no_candidates"
	// CodeQueryRegressed: Eq. 4 failed — a query regressed beyond λ₃.
	CodeQueryRegressed ReasonCode = "query_regressed"
	// CodeNoQueryImproved: Eq. 3 failed — no query improved by λ₂.
	CodeNoQueryImproved ReasonCode = "no_query_improved"
	// CodeOverallRegressed: Eq. 2 failed — total cost rose beyond λ₁.
	CodeOverallRegressed ReasonCode = "overall_regressed"
	// CodeCloneUnavailable: the clone pair could not be built (degraded).
	CodeCloneUnavailable ReasonCode = "clone_unavailable"
	// CodeUnreplayable: one or more queries stayed unreplayable after
	// retries, so the gate would have decided on partial evidence
	// (degraded).
	CodeUnreplayable ReasonCode = "unreplayable_queries"
	// CodePanicked: the validation panicked and was contained (degraded).
	CodePanicked ReasonCode = "validation_panic"
)

// Verdict is the three-way outcome string used by /statusz and the audit
// journal: "accepted", "rejected" or "degraded".
func (r *Report) Verdict() string {
	switch {
	case r.Accepted:
		return "accepted"
	case r.Degraded:
		return "degraded"
	default:
		return "rejected"
	}
}
