package bench

import (
	"errors"
	"fmt"
)

// ErrUnknownExperiment reports an experiment name Run does not know.
var ErrUnknownExperiment = errors.New("bench: unknown experiment")

// Experiment names accepted by Run, in paper order.
var Experiments = []string{"fig2er", "fig2rmat", "table3", "table4", "fig3", "fig4", "table5", "fig6"}

// Run executes one experiment by id, or all of them for "all".
func Run(name string, cfg Config) error {
	switch name {
	case "fig2er":
		return Fig2ER(cfg)
	case "fig2rmat":
		return Fig2RMAT(cfg)
	case "table3":
		return Table3(cfg)
	case "table4":
		return Table4(cfg)
	case "fig3":
		return Fig3(cfg)
	case "fig4":
		return Fig4(cfg)
	case "table5":
		return Table5(cfg)
	case "fig6":
		return Fig6(cfg)
	case "reuse":
		return Reuse(cfg)
	case "pool":
		return Pool(cfg)
	case "monoid":
		return Monoid(cfg)
	case "tune":
		return Tune(cfg)
	case "ablation":
		return Ablation(cfg)
	case "dtype":
		return Dtype(cfg)
	case "all":
		for _, e := range Experiments {
			if err := Run(e, cfg); err != nil {
				return fmt.Errorf("%s: %w", e, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("%w: %q (want one of %v, \"reuse\", \"pool\", \"monoid\", \"tune\", \"ablation\", \"dtype\", or \"all\")", ErrUnknownExperiment, name, Experiments)
	}
}
