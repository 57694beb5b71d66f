package serve

import "sentinel3d/internal/ssdsim"

// DefaultSamplers is the policy set flashd serves when no trained
// model is wired in: fixed empirical retry pools per TLC page type,
// shaped like the paper's headline result — the sentinel policy
// resolves most reads in one attempt at the cost of an aux sense, the
// vendor table walks fixed retry sequences (deep for MSB pages), and
// the adaptive policies (ar2, history, sentinel+history) shave or skip
// the walk via pipelining and per-block warm-start offsets. The pools
// never change while serving: flashd reads no chip and keeps no
// per-block offset state.
func DefaultSamplers() map[string]ssdsim.RetrySampler {
	return map[string]ssdsim.RetrySampler{
		"sentinel": &ssdsim.EmpiricalSampler{PerPage: [][]ssdsim.RetryOutcome{
			{ // LSB: one boundary, sentinel nails it
				{Retries: 0}, {Retries: 0}, {Retries: 0}, {Retries: 0, AuxSenses: 1},
			},
			{ // CSB
				{Retries: 0, AuxSenses: 1}, {Retries: 0, AuxSenses: 1},
				{Retries: 1, AuxSenses: 1}, {Retries: 0},
			},
			{ // MSB: deepest levels, occasional second shot
				{Retries: 0, AuxSenses: 1}, {Retries: 1, AuxSenses: 1},
				{Retries: 1, AuxSenses: 2}, {Retries: 2, AuxSenses: 1},
			},
		}},
		"table": &ssdsim.EmpiricalSampler{PerPage: [][]ssdsim.RetryOutcome{
			{ // LSB
				{Retries: 0}, {Retries: 1}, {Retries: 1}, {Retries: 2},
			},
			{ // CSB
				{Retries: 1}, {Retries: 2}, {Retries: 2}, {Retries: 3},
			},
			{ // MSB: long vendor sequences
				{Retries: 2}, {Retries: 4}, {Retries: 5}, {Retries: 6},
			},
		}},
		// ar2 walks the same vendor sequences as table, but pipelined —
		// at the system level retry steps are still charged serially
		// (the overlap is chip-internal), so the pools only shave the
		// occasional deepest step the pipeline reaches one entry early.
		"ar2": &ssdsim.EmpiricalSampler{PerPage: [][]ssdsim.RetryOutcome{
			{ // LSB
				{Retries: 0}, {Retries: 1}, {Retries: 1}, {Retries: 2},
			},
			{ // CSB
				{Retries: 1}, {Retries: 2}, {Retries: 2}, {Retries: 3},
			},
			{ // MSB
				{Retries: 2}, {Retries: 4}, {Retries: 4}, {Retries: 6},
			},
		}},
		// history starts at the block's warm-start offsets: started
		// blocks land first shot with no aux sense; a block without
		// start offsets here and there falls back to a short table walk.
		"history": &ssdsim.EmpiricalSampler{PerPage: [][]ssdsim.RetryOutcome{
			{ // LSB
				{Retries: 0}, {Retries: 0}, {Retries: 0}, {Retries: 0},
			},
			{ // CSB
				{Retries: 0}, {Retries: 0}, {Retries: 0}, {Retries: 1},
			},
			{ // MSB
				{Retries: 0}, {Retries: 0}, {Retries: 1}, {Retries: 2},
			},
		}},
		// sentinel+history starts at the warm-start offsets and recovers
		// failed first shots with sentinel inference, so they cost an
		// aux sense instead of a table walk.
		"sentinel+history": &ssdsim.EmpiricalSampler{PerPage: [][]ssdsim.RetryOutcome{
			{ // LSB
				{Retries: 0}, {Retries: 0}, {Retries: 0}, {Retries: 0},
			},
			{ // CSB
				{Retries: 0}, {Retries: 0}, {Retries: 0}, {Retries: 0, AuxSenses: 1},
			},
			{ // MSB
				{Retries: 0}, {Retries: 0}, {Retries: 0, AuxSenses: 1}, {Retries: 1, AuxSenses: 1},
			},
		}},
	}
}
