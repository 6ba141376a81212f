package activerbac

import (
	"time"

	"activerbac/internal/analyze"
	"activerbac/internal/clock"
	"activerbac/internal/policy"
)

// Finding is one static-analysis result (code, severity, subject,
// message); String() renders the stable one-line greppable form.
type Finding = analyze.Finding

// Finding severities.
const (
	AnalysisWarn  = analyze.Warn
	AnalysisError = analyze.Error
)

// HasAnalysisErrors reports whether any finding is error severity —
// the gate policyc -analyze and rbacd -analyze=strict fail on.
func HasAnalysisErrors(fs []Finding) bool { return analyze.HasErrors(fs) }

// Analyze runs the static analyzer over the live system: the loaded
// policy, the generated rule pool and the detector's event registry.
// Findings are also counted into the metrics registry by code and
// severity.
func (s *System) Analyze() []Finding {
	eng := s.gen.Engine()
	fs := analyze.Analyze(analyze.Input{
		Spec:   s.gen.Spec(),
		Rules:  eng.Pool().Snapshot(),
		Events: eng.Detector().Events(),
		Anchor: eng.Clock().Now(),
	})
	for _, f := range fs {
		s.obs.AnalyzeFindings.With(f.Code, f.Severity.String()).Inc()
	}
	return fs
}

// AnalyzePolicy statically analyzes a policy before installation: it
// parses the source, runs the consistency checker (checker errors come
// back as RV000 findings), and — when the policy is loadable — builds a
// scratch engine on a simulated clock to generate the rule pool and run
// the rule-graph analyses. The live system is never touched; this is
// the pre-install gate rbacd's hot-reload path and policyc use.
//
// at anchors the temporal analyses; the zero value selects the
// analyzer's fixed deterministic epoch.
func AnalyzePolicy(policySource string, at time.Time) ([]Finding, error) {
	spec, err := policy.ParseString(policySource)
	if err != nil {
		return nil, err
	}
	issues := policy.Check(spec)
	if policy.HasErrors(issues) {
		fs := analyze.Analyze(analyze.Input{Spec: spec, Anchor: at})
		for _, is := range issues {
			if is.Severity == policy.Error {
				fs = append(fs, Finding{
					Code: "RV000", Severity: analyze.Error,
					Subject: "policy:" + spec.Name, Msg: is.Msg,
				})
			}
		}
		return fs, nil
	}
	start := at
	if start.IsZero() {
		start = time.Date(2024, time.January, 1, 0, 0, 0, 0, time.UTC)
	}
	scratch, err := openSpec(spec, policySource, nil, &Options{Clock: clock.NewSim(start)})
	if err != nil {
		// Loadability was vetted by Check; a generation failure is itself
		// a pre-install finding rather than an analysis breakdown.
		fs := analyze.Analyze(analyze.Input{Spec: spec, Anchor: at})
		fs = append(fs, Finding{
			Code: "RV000", Severity: analyze.Error,
			Subject: "policy:" + spec.Name, Msg: "rule generation failed: " + err.Error(),
		})
		return fs, nil
	}
	defer scratch.Close()
	eng := scratch.gen.Engine()
	return analyze.Analyze(analyze.Input{
		Spec:   spec,
		Rules:  eng.Pool().Snapshot(),
		Events: eng.Detector().Events(),
		Anchor: at,
	}), nil
}
