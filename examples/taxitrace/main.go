// Taxitrace: cleaning and compressing an urban GPS fleet.
//
// A synthetic city is generated, vehicles drive shortest-path trips,
// and their GPS traces are corrupted with noise, gross outliers, and
// sparse sampling. The example then walks the §2.2 stack end to end:
//
//  1. outlier detection (constraint, statistical, prediction-based)
//     scored against the injected ground truth;
//
//  2. inference-based route recovery (HMM map matching);
//
//  3. error-bounded compression of the recovered trajectories and
//     network-constrained encoding of the matched route.
//
//     go run ./examples/taxitrace
package main

import (
	"fmt"

	"sidq/internal/outlier"
	"sidq/internal/reduce"
	"sidq/internal/roadnet"
	"sidq/internal/simulate"
	"sidq/internal/trajectory"
	"sidq/internal/uncertain"
)

func main() {
	g := roadnet.GridCity(roadnet.GridCityOptions{
		NX: 10, NY: 10, Spacing: 120, Jitter: 8, RemoveFrac: 0.2, Seed: 1,
	})
	snapper := roadnet.NewSnapper(g, 100)
	trips := simulate.TripsWithRoutes(g, simulate.TripOptions{
		NumObjects: 5, MinHops: 10, Speed: 12, SampleInterval: 1, Seed: 2,
	})
	fmt.Printf("city: %d intersections, %d road segments; fleet: %d trips\n\n",
		g.NumNodes(), g.NumEdges(), len(trips))

	for i, trip := range trips {
		// Corrupt: thin to 1/5 sampling, add 10 m noise, 4% outliers.
		noisy := simulate.AddGaussianNoise(trip.Truth.Thin(5), 10, int64(10+i))
		corrupted, truthFlags := simulate.InjectOutliers(noisy, 0.04, 150, int64(20+i))

		// 1. Outlier removal, three ways.
		constraint := outlier.Evaluate(outlier.SpeedConstraint(corrupted.Points, 25, nil), truthFlags)
		statistical := outlier.Evaluate(outlier.Statistical(corrupted.Points, outlier.StatisticalOptions{}, nil, nil), truthFlags)
		repaired, predFlags := outlier.Prediction(corrupted, outlier.PredictionOptions{
			MeasNoise: 10, Threshold: 5, Repair: true,
		})
		prediction := outlier.Evaluate(predFlags, truthFlags)
		fmt.Printf("trip %d (%d pts): outlier F1 constraint=%.2f statistical=%.2f prediction=%.2f\n",
			i, corrupted.Len(), constraint.F1(), statistical.F1(), prediction.F1())

		// 2. Route recovery on the repaired trace.
		res, err := uncertain.MapMatch(g, snapper, repaired, uncertain.MatchOptions{EmissionSigma: 12})
		if err != nil {
			fmt.Printf("  map matching failed: %v\n", err)
			continue
		}
		fmt.Printf("  route recovery: accuracy=%.2f, error %.1f m -> %.1f m, %d -> %d pts\n",
			uncertain.RouteAccuracy(res.Route, trip.Path.Edges),
			trajectory.MeanErrorAgainst(corrupted, trip.Truth),
			trajectory.MeanErrorAgainst(res.Recovered, trip.Truth),
			corrupted.Len(), res.Recovered.Len())

		// 3. Compression: simplify the recovered trace with a 10 m SED
		// bound, and encode the matched route against the network.
		simplified := reduce.DouglasPeuckerSED(res.Recovered, 10)
		times := make([]float64, len(res.Route))
		for j := range times {
			if j < res.Recovered.Len() {
				times[j] = res.Recovered.Points[j].T
			}
		}
		encoded := reduce.EncodeNetworkTrip(reduce.NetworkTrip{Route: res.Route, Times: times}, 1)
		fmt.Printf("  compression: DP-SED %.1fx (max err %.1f m); network-constrained %.1fx (%d bytes)\n\n",
			reduce.CompressionRatio(res.Recovered.Len(), simplified.Len()),
			reduce.VerifySED(res.Recovered, simplified),
			float64(reduce.RawTripBytes(res.Recovered.Len()))/float64(len(encoded)),
			len(encoded))
	}
}
