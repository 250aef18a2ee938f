//! Clean twin of `interproc_trip.rs`: same helper, same collective, but the
//! call sits outside every rank-conditioned region, so every rank executes
//! it and the schedule stays uniform. `spmd-divergence` may fire neither
//! directly nor through the call.

pub struct Comm;

impl Comm {
    pub fn rank(&self) -> usize {
        0
    }
    pub fn bcast(&self, root: usize, buf: Vec<u8>) -> Vec<u8> {
        let _ = root;
        buf
    }
}

fn sync_halo(comm: &Comm, buf: Vec<u8>) -> Vec<u8> {
    comm.bcast(0, buf)
}

pub fn step(comm: &Comm) {
    let me = comm.rank();
    let payload = if me == 0 { vec![1u8] } else { Vec::new() };
    // Every rank reaches this call: rank only shapes the payload, not the
    // collective schedule.
    let _ = sync_halo(comm, payload);
}
