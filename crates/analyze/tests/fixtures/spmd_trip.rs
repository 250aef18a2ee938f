// Lint fixture: every collective here sits inside a rank()-conditioned
// branch and must trip spmd-divergence. Never compiled.

pub fn root_only_broadcast(comm: &Comm, payload: Vec<u8>) {
    if comm.rank() == 0 {
        comm.allgather(payload);
    }
}

pub fn divergent_chain(comm: &Comm) {
    if comm.rank() % 2 == 0 {
        comm.agree(None);
    } else {
        comm.allreduce_sum(&[1.0]);
    }
}

pub fn divergent_match(ctx: &RankCtx) {
    match ctx.rank() {
        0 => {
            let _ = ctx.allgather(vec![1]);
        }
        _ => {}
    }
}

pub fn nested_split(ctx: &RankCtx, w: &Comm) {
    if ctx.size() > 1 {
        if ctx.rank() > 0 {
            let _ = w.split(1, 0);
        }
    }
}
