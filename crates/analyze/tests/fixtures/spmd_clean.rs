// Lint fixture: schedule-uniform and annotated collective usage — zero
// spmd-divergence findings expected. Never compiled.

pub fn uniform_schedule(comm: &Comm, payload: Vec<u8>) {
    comm.allgather(payload);
    if comm.rank() == 0 {
        record_root_side_effect();
    }
    comm.agree(None);
}

pub fn rank_in_arguments_not_condition(ctx: &RankCtx, w: &Comm) {
    // Rank-derived *data* is the normal pattern; only rank-conditioned
    // *control flow* around a collective diverges the schedule.
    let sub = w.split((ctx.rank() / 2) as u64, ctx.rank() as u64);
    let _ = ctx.allgather(vec![ctx.rank() as u8]);
    let _ = sub;
}

pub fn annotated_divergence(comm: &Comm) {
    if comm.rank() != 1 {
        // analyze: allow(spmd-divergence, deliberately divergent schedule under test)
        comm.allgather(vec![7]);
    }
}

pub fn non_rank_condition(comm: &Comm, ready: bool) {
    if ready {
        comm.agree(None);
    }
}

pub fn if_let_is_not_a_binding(comm: &Comm, schedule: Schedule) {
    // `if let` tests a pattern; the `rank()` in its block taints nothing
    // after it, so the later `Schedule` condition is schedule-uniform.
    if let Schedule::Dynamic(opts) = schedule {
        record(comm.rank(), opts);
    }
    if matches!(schedule, Schedule::Static) {
        comm.agree(None);
    }
}
