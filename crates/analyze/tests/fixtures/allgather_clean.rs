// Lint fixture: `allgather` and `agree` entered by every rank, directly
// and through a helper; only side effects are rank-conditioned — zero
// spmd-divergence findings of either kind expected. Never compiled.

pub fn uniform_exchange(comm: &Comm, mine: Vec<u8>, local: Option<&OmenError>) {
    let parts = comm.allgather(mine);
    let verdict = comm.agree(local);
    if comm.rank() == 0 {
        record(parts, verdict);
    }
}

fn phase_health(comm: &Comm, local: Option<&OmenError>) {
    let _ = comm.agree(local);
}

pub fn uniform_helper(comm: &Comm, failed_here: Option<&OmenError>) {
    // The *payload* may depend on the rank; the call may not.
    phase_health(comm, failed_here);
    if comm.rank() == 0 {
        log_phase();
    }
}
