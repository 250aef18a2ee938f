// Lint fixture: the one-round collectives `allgather` and `agree` under
// rank-conditioned control flow — two direct findings, and one that only
// the call-graph pass sees (the `agree` hidden behind `phase_health`).
// Never compiled.

pub fn root_only_exchange(comm: &Comm, mine: Vec<u8>) {
    if comm.rank() == 0 {
        let _ = comm.allgather(mine);
    }
}

pub fn failing_rank_only_barrier(comm: &Comm, err: &OmenError) {
    let me = comm.rank();
    if me == 2 {
        let _ = comm.agree(Some(err));
    }
}

fn phase_health(comm: &Comm) {
    let _ = comm.agree(None);
}

pub fn hidden_barrier(comm: &Comm) {
    if comm.rank() > 0 {
        phase_health(comm);
    }
}
