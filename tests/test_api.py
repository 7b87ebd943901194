import htclip

# every name htclip exported before Trajectory was folded into BatchResult
KEPT = """
    __version__ AbsSum AllSpace Ball CompositeObjective EuclidNorm HardCvx
    HardStr Linear Optimum QuadReg eval_F eval_F_batch eval_f prox_step
    reduce_strongly_convex stabilized_prox_step GradOracle NoiseSpec
    StableParams d_eff_lower_bound directional_bound_independent
    estimate_moments make_oracle sample_alpha_stable stable_abs_moment
    stable_eps_star BOUND_NAMES ClipErrorReport clip clip_batch clip_bounds
    clip_error_exact clip_error_mc operator_norm REGIMES Schedule
    ScheduleParams d_eff_of ex_params gamma_t gamma_t_product hp_params
    make_schedule weighted_avg_weight Checkpoint average checkpoint_times
    run_clipped_sgd run_stabilized_clipped_sgd run_trials
    suboptimality_series HARD_REGIMES Codebook HardInstance HardParams
    gv_codebook hard_params make_hard_instance pad_codewords sample_dv
    two_point_codebook ExperimentConfig ExperimentResult FitResult
    derive_seed fit_rate parse_config persist run_experiment summarize
""".split()


def test_all_has_no_duplicates_and_every_entry_resolves():
    assert len(htclip.__all__) == len(set(htclip.__all__))
    for name in htclip.__all__:
        assert hasattr(htclip, name), name


def test_earlier_exports_are_kept():
    assert len(KEPT) == 71
    assert set(KEPT) <= set(htclip.__all__)
    assert "Trajectory" not in htclip.__all__
