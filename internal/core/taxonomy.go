package core

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"

	"sidq/internal/analysis"
	"sidq/internal/decide"
	"sidq/internal/faults"
	"sidq/internal/integrate"
	"sidq/internal/outlier"
	"sidq/internal/private"
	"sidq/internal/quality"
	"sidq/internal/reduce"
	"sidq/internal/refine"
	"sidq/internal/uncertain"
	"sidq/internal/uquery"
)

// TaxonomyEntry is one cell of the paper's Figure-2 categorization,
// mapped to the code that implements it in this repository. The
// implementing symbols are held by reference — a function value, a
// method expression, or a typed nil pointer standing for a type — so a
// cell whose implementation is renamed or deleted stops compiling.
type TaxonomyEntry struct {
	Layer     string // IoT layer (localization / pre-processing / business)
	Task      string // DQ task (Figure 2, task perspective)
	Technique string // technique family (Figure 2, technique perspective)
	// Refs are the symbols some command, route, experiment or example
	// reaches; Unmeasured the ones only their own unit tests call.
	// surface_test.go at the module root holds the split to the code.
	Refs       []any
	Unmeasured []any
	// Measured names the exp.All() experiments whose tables exercise
	// Refs; empty when no E-table does.
	Measured []string
	Note     string // printed after the symbols
}

// Taxonomy returns the full Figure-2 coverage matrix of this
// repository: every task the tutorial's taxonomy names, the technique
// perspective it exercises, and where it lives.
func Taxonomy() []TaxonomyEntry {
	type refs = []any
	type by = []string
	return []TaxonomyEntry{
		// Localization layer — Location Refinement.
		{"localization", "location refinement / ensemble (single-source)", "probabilistic modeling", refs{(*refine.WkNN)(nil)}, nil, by{"E1a"}, ""},
		{"localization", "location refinement / ensemble (multi-source)", "probabilistic modeling", refs{refine.Multilaterate, refine.Fuse}, nil, by{"E1a"}, ""},
		{"localization", "location refinement / motion-based", "spatiotemporal dependency (Bayes filter)", refs{(*refine.Kalman)(nil), refine.KalmanSmoothTrajectory}, nil, by{"E1b"}, ""},
		{"localization", "location refinement / motion-based", "probabilistic modeling (SMC)", refs{(*refine.ParticleFilter)(nil)}, nil, by{"E1b"}, ""},
		{"localization", "location refinement / motion-based", "probabilistic graph model", refs{(*refine.HMMGrid)(nil)}, nil, by{"E1b"}, ""},
		{"localization", "location refinement / collaborative (joint denoising)", "collaborative computing", refs{refine.JointDenoise}, nil, by{"E1c"}, ""},
		{"localization", "location refinement / collaborative (iterative)", "collaborative computing", refs{refine.IterativeOptimize}, nil, by{"E1c"}, ""},
		// Pre-processing layer — Uncertainty Elimination.
		{"pre-processing", "uncertainty elimination / trajectory (calibration)", "spatial constraint modeling", refs{uncertain.CalibrateToAnchors}, nil, by{"E2"}, ""},
		{"pre-processing", "uncertainty elimination / trajectory (inference)", "spatiotemporal regularity (HMM + shortest paths)", refs{uncertain.MapMatch}, nil, by{"E2"}, ""},
		{"pre-processing", "uncertainty elimination / trajectory (online inference)", "stream computing (fixed-lag Viterbi)", refs{(*uncertain.OnlineMatcher)(nil)}, nil, nil, ""},
		{"pre-processing", "uncertainty elimination / trajectory (smoothing)", "spatiotemporal dependency", refs{uncertain.MovingAverage}, refs{uncertain.ExponentialSmooth}, by{"E2"}, ""},
		{"pre-processing", "uncertainty elimination / STID (interpolation)", "spatiotemporal dependency", refs{(*uncertain.IDW)(nil), (*uncertain.GaussianKernel)(nil), (*uncertain.TrendResidual)(nil)}, nil, by{"E3"}, ""},
		{"pre-processing", "uncertainty elimination / STID (fusion)", "probabilistic modeling / multi-view", refs{uncertain.FuseSources}, nil, by{"E3"}, ""},
		{"pre-processing", "uncertainty elimination / STID (few labels)", "semi-supervised learning (co-training)", nil, refs{(*uncertain.CoTraining)(nil)}, nil, ""},
		{"pre-processing", "uncertainty elimination / STID (cross-region)", "transfer learning", nil, refs{(*uncertain.TransferTrend)(nil)}, nil, ""},
		{"pre-processing", "uncertainty elimination / STID (correlated variables)", "multi-task learning", nil, refs{(*uncertain.MultiTaskTrend)(nil)}, nil, ""},
		// Pre-processing layer — Outlier Removal.
		{"pre-processing", "outlier removal / trajectory (constraint)", "spatial constraint modeling", refs{outlier.SpeedConstraint}, nil, by{"E4"}, ""},
		{"pre-processing", "outlier removal / trajectory (statistics)", "probabilistic modeling", refs{outlier.Statistical}, nil, by{"E4"}, ""},
		{"pre-processing", "outlier removal / trajectory (prediction)", "spatiotemporal dependency", refs{outlier.Prediction}, nil, by{"E4", "E4b"}, ""},
		{"pre-processing", "outlier removal / STID (temporal)", "probabilistic modeling", refs{outlier.Temporal}, nil, by{"E4"}, ""},
		{"pre-processing", "outlier removal / STID (spatial)", "spatially autocorrelated neighborhood", refs{outlier.Spatial}, nil, by{"E4"}, ""},
		{"pre-processing", "outlier removal / STID (spatiotemporal)", "neighborhood-based", refs{outlier.SpatioTemporal}, nil, by{"E4"}, ""},
		// Pre-processing layer — Fault Correction.
		{"pre-processing", "fault correction / symbolic (rule)", "spatial constraint modeling", refs{faults.Deployment.ResolveConflicts}, nil, by{"E5"}, ""},
		{"pre-processing", "fault correction / symbolic (smoothing)", "spatiotemporal regularity", refs{faults.Deployment.SmoothImpute}, nil, by{"E5"}, ""},
		{"pre-processing", "fault correction / symbolic (probabilistic)", "probabilistic modeling (HMM)", refs{faults.Deployment.HMMClean}, nil, by{"E5"}, ""},
		{"pre-processing", "fault correction / timestamps", "temporal constraints", refs{faults.RepairTimestamps}, nil, by{"E5"}, ""},
		{"pre-processing", "fault correction / thematic values", "spatiotemporal dependency", refs{faults.RepairThematic}, nil, nil, ""},
		// Pre-processing layer — Data Integration.
		{"pre-processing", "data integration / semantic (trajectory)", "spatiotemporal regularity (geo-semantics)", refs{integrate.Episodes}, nil, by{"E6"}, ""},
		{"pre-processing", "data integration / non-semantic (traj+traj)", "spatiotemporal dependency", refs{integrate.LinkEntities}, refs{integrate.AlignScales}, by{"E6"}, ""},
		{"pre-processing", "data integration / non-semantic (traj+STID)", "spatiotemporal dependency", nil, refs{integrate.AttachReadings}, nil, ""},
		{"pre-processing", "data integration / non-semantic (STID+STID)", "probabilistic modeling", refs{uncertain.FuseSources}, nil, by{"E3"}, "(bias-corrected)"},
		// Pre-processing layer — Data Reduction.
		{"pre-processing", "data reduction / trajectory (offline)", "error-bounded line simplification", refs{reduce.DouglasPeuckerSED}, nil, by{"E7"}, ""},
		{"pre-processing", "data reduction / trajectory (online)", "error-bounded line simplification", refs{reduce.SlidingWindow, reduce.SQUISH, reduce.DeadReckoning}, nil, by{"E7"}, ""},
		{"pre-processing", "data reduction / trajectory (direction)", "direction-bounded simplification", nil, refs{reduce.DirectionPreserving}, nil, ""},
		{"pre-processing", "data reduction / network-constrained", "spatial constraint modeling", refs{reduce.EncodeNetworkTrip}, nil, by{"E7b"}, ""},
		{"pre-processing", "data reduction / STID (lossless)", "entropy coding", refs{reduce.DeltaVarintEncode, reduce.RiceEncode}, nil, by{"E7b"}, ""},
		{"pre-processing", "data reduction / STID (lossy)", "error-bounded compression", refs{reduce.LTC}, nil, by{"E7b"}, ""},
		{"pre-processing", "data reduction / STID (prediction)", "prediction-based suppression", refs{reduce.SuppressConstant}, nil, by{"E7b"}, ""},
		// Business layer — Querying.
		{"business", "querying / uncertainty (pdf models)", "probabilistic modeling", refs{(*uquery.GaussianObject)(nil)}, refs{(*uquery.DiscreteObject)(nil)}, by{"E8"}, ""},
		{"business", "querying / uncertainty (range, kNN)", "bound-based pruning", refs{uquery.ProbRange, uquery.ProbKNN}, nil, by{"E8"}, ""},
		{"business", "querying / uncertainty (between samples)", "space-time prisms", refs{(*uquery.Prism)(nil)}, nil, by{"E8"}, ""},
		{"business", "querying / uncertainty (possibly-definitely)", "space-time prisms", nil, refs{uquery.PossiblyDefinitely, uquery.ClassifyRange}, nil, ""},
		{"business", "querying / uncertainty (between samples)", "first-order Markov grids", refs{(*uquery.MarkovGrid)(nil)}, nil, by{"E8"}, ""},
		{"business", "querying / dynamics (continuous)", "safe regions", refs{(*uquery.SafeRegionMonitor)(nil)}, nil, by{"E9"}, ""},
		{"business", "querying / dynamics (continuous kNN)", "safe regions", nil, refs{(*uquery.KNNMonitor)(nil)}, nil, ""},
		{"business", "querying / dynamics (streams)", "stream computing (watermarks)", refs{(*uquery.StreamRangeCounter)(nil)}, nil, by{"E9"}, ""},
		{"business", "querying / decentralization", "distributed computing", refs{(*uquery.DistStore)(nil)}, nil, by{"E9"}, ""},
		// Business layer — Analysis.
		{"business", "analysis / uncertain clustering", "probabilistic modeling", refs{analysis.UncertainDBSCAN}, nil, by{"E10"}, ""},
		{"business", "analysis / stream anomaly detection", "stream computing", refs{(*analysis.StreamAnomalyDetector)(nil)}, nil, by{"E10"}, ""},
		{"business", "analysis / probabilistic frequent patterns", "probabilistic modeling", nil, refs{analysis.FrequentPairs, analysis.ExtendPatterns}, nil, ""},
		{"business", "analysis / popular routes", "spatiotemporal regularity", refs{analysis.PopularRoute}, nil, by{"E10"}, ""},
		{"business", "analysis / bursty regions (streams)", "stream computing", nil, refs{(*analysis.BurstDetector)(nil)}, nil, ""},
		{"business", "analysis / co-evolving patterns", "spatially autocorrelated dependency", nil, refs{analysis.CoEvolving}, nil, ""},
		{"business", "analysis / trajectory clustering", "spatiotemporal dependency (k-medoids)", nil, refs{analysis.ClusterTrajectories}, nil, ""},
		{"business", "querying / symbolic (indoor) monitoring", "symbolic-space range monitoring", nil, refs{(*faults.ZoneMonitor)(nil)}, nil, ""},
		{"business", "analysis / uncertain trajectory similarity", "probabilistic modeling", nil, refs{analysis.TopKSimilar}, nil, ""},
		// Business layer — Decision-making.
		{"business", "decision-making / next location", "incremental learning (Markov)", refs{(*decide.MarkovPredictor)(nil)}, refs{(*decide.Markov2Predictor)(nil)}, by{"E11"}, ""},
		{"business", "decision-making / traffic volume", "spatiotemporal dependency (shrinkage)", refs{(*decide.VolumeGrid)(nil)}, nil, by{"E11"}, ""},
		{"business", "decision-making / POI recommendation", "probabilistic modeling", refs{(*decide.Recommender)(nil)}, nil, by{"E11"}, ""},
		{"business", "decision-making / task assignment", "DQ-aware planning", refs{decide.AssignTasks}, nil, by{"E11"}, ""},
		{"business", "decision-making / decentralized models", "federated learning", refs{(*decide.FederatedVolume)(nil)}, nil, by{"E14"}, ""},
		{"business", "decision-making / adaptive sampling", "reinforcement learning (bandit)", nil, refs{(*decide.AdaptiveSampler)(nil)}, nil, ""},
		{"business", "decision-making / site selection", "semi-supervised learning (PU)", nil, refs{decide.PUSiteSelection}, nil, ""},
		{"business", "querying / privacy-preserving outsourcing", "spatial transformation", refs{(*private.Scheme)(nil), (*private.Client)(nil), (*private.Server)(nil)}, nil, by{"E13"}, ""},
		// Middleware (open-issue directions).
		{"middleware", "DQ assessment", "quality dimensions framework", refs{quality.AssessTrajectory, quality.AssessReadings}, nil, by{"E12"}, ""},
		{"middleware", "DQ-aware task planning", "rule-based planning", refs{Plan}, nil, nil, ""},
		{"middleware", "quality management middleware", "pipeline composition", refs{(*Runner)(nil)}, nil, by{"E12"}, ""},
	}
}

// refName resolves one taxonomy reference to its package, relative to
// the module root, and the symbol's own name.
func refName(ref any) (pkg, name string) {
	v := reflect.ValueOf(ref)
	if v.Kind() == reflect.Func {
		// "sidq/internal/faults.Deployment.ResolveConflicts"
		full := runtime.FuncForPC(v.Pointer()).Name()
		slash := strings.LastIndex(full, "/")
		pkg = full[:slash+1+strings.Index(full[slash+1:], ".")]
		name = full[strings.LastIndex(full, ".")+1:]
	} else {
		t := v.Type().Elem()
		pkg, name = t.PkgPath(), t.Name()
	}
	return pkg[strings.Index(pkg, "/")+1:], name
}

// RenderFigure2 renders the taxonomy as the Figure-2-shaped coverage
// table grouped by layer: task, technique, implementing symbols, and
// the experiments that measure the cell.
func RenderFigure2() string {
	var b strings.Builder
	lastLayer := ""
	for _, e := range Taxonomy() {
		if e.Layer != lastLayer {
			fmt.Fprintf(&b, "\n[%s layer]\n", e.Layer)
			lastLayer = e.Layer
		}
		var pkg string
		var names []string
		for i, r := range append(append([]any{}, e.Refs...), e.Unmeasured...) {
			var n string
			if pkg, n = refName(r); i >= len(e.Refs) {
				n += "*"
			}
			names = append(names, n)
		}
		symbols := pkg + ": " + strings.Join(names, ", ")
		if e.Note != "" {
			symbols += " " + e.Note
		}
		measured := "-"
		if len(e.Measured) > 0 {
			measured = strings.Join(e.Measured, ", ")
		}
		fmt.Fprintf(&b, "  %-55s | %-48s | %-54s | %s\n", e.Task, e.Technique, symbols, measured)
	}
	b.WriteString("\n* reached by no command, route, experiment or example: unit-tested only. Last column: the experiments that measure the cell.\n")
	return b.String()
}
