//! An in-process MPI-like communicator: ranks are threads, messages are
//! moved `Vec<f64>` buffers, collectives have MPI semantics.
//!
//! Only the operations PETSc-FUN3D's solver needs are provided: matched
//! send/recv (FIFO per (source, destination) pair), sum/max allreduce,
//! and barrier. Statistics (message and byte counts per op class) are
//! recorded for the communication-overhead accounting of Fig. 10.
//!
//! Built entirely on `std::sync` (mpsc channels + `Mutex`) so the
//! workspace stays hermetic. `std::sync::mpsc` gives exactly the FIFO
//! per-(src,dst) ordering MPI guarantees for a single tag in flight, and
//! since Rust 1.72 `Sender` is `Sync`, so one channel per directed rank
//! pair can be shared from a single `Arc`.

use fun3d_util::telemetry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier, Mutex, PoisonError};

/// A tagged message.
struct Msg {
    tag: u32,
    data: Vec<f64>,
}

struct Shared {
    size: usize,
    /// channels[src * size + dst]
    senders: Vec<Sender<Msg>>,
    receivers: Vec<Mutex<Receiver<Msg>>>,
    barrier: Barrier,
    /// Statistics.
    p2p_msgs: AtomicU64,
    p2p_bytes: AtomicU64,
    collectives: AtomicU64,
}

/// The launcher: spins up `size` rank threads and joins them.
pub struct Universe;

impl Universe {
    /// Runs `f(comm)` on `size` rank threads; returns the per-rank return
    /// values in rank order.
    pub fn run<T, F>(size: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Comm) -> T + Send + Sync,
    {
        assert!(size >= 1);
        let mut senders = Vec::with_capacity(size * size);
        let mut receivers = Vec::with_capacity(size * size);
        for _ in 0..size * size {
            let (tx, rx) = channel::<Msg>();
            senders.push(tx);
            receivers.push(Mutex::new(rx));
        }
        let shared = Arc::new(Shared {
            size,
            senders,
            receivers,
            barrier: Barrier::new(size),
            p2p_msgs: AtomicU64::new(0),
            p2p_bytes: AtomicU64::new(0),
            collectives: AtomicU64::new(0),
        });
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(size);
            for rank in 0..size {
                let shared = Arc::clone(&shared);
                let f = &f;
                handles.push(scope.spawn(move || {
                    telemetry::set_thread_label(format!("rank-{rank}"));
                    // Flight events from this thread carry the rank, so a
                    // dump merges all ranks into one causally-ordered
                    // record (ranks share the process telemetry epoch).
                    telemetry::set_rank(rank as u64);
                    f(Comm::new(rank, shared))
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("rank panicked"))
                .collect()
        })
    }
}

/// A rank's endpoint.
pub struct Comm {
    rank: usize,
    shared: Arc<Shared>,
    // Per-rank live histograms (size + latency per direction), handles
    // resolved once at rank startup so the record path never takes the
    // registry lock.
    send_bytes: Arc<telemetry::metrics::Histogram>,
    send_ns: Arc<telemetry::metrics::Histogram>,
    recv_bytes: Arc<telemetry::metrics::Histogram>,
    recv_ns: Arc<telemetry::metrics::Histogram>,
}

impl Comm {
    fn new(rank: usize, shared: Arc<Shared>) -> Comm {
        let hist = |dir: &str, what: &str| {
            telemetry::metrics::histogram(&format!("cluster.rank{rank}.{dir}_{what}"))
        };
        Comm {
            rank,
            shared,
            send_bytes: hist("send", "bytes"),
            send_ns: hist("send", "ns"),
            recv_bytes: hist("recv", "bytes"),
            recv_ns: hist("recv", "ns"),
        }
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Sends `data` to `dst` with a tag. Non-blocking (buffered).
    pub fn send(&self, dst: usize, tag: u32, data: Vec<f64>) {
        self.shared.p2p_msgs.fetch_add(1, Ordering::Relaxed);
        let bytes = (data.len() * 8) as u64;
        self.shared.p2p_bytes.fetch_add(bytes, Ordering::Relaxed);
        // Same counter vocabulary as the compute kernels: one message is
        // one item; the payload counts as bytes written by this rank.
        telemetry::record_kernel("comm.send", telemetry::KernelCounts::once(1, 0, bytes, 0));
        telemetry::emit(telemetry::EventKind::CommSend {
            peer: dst as u64,
            bytes,
        });
        let t0 = std::time::Instant::now();
        self.shared.senders[self.rank * self.shared.size + dst]
            .send(Msg { tag, data })
            .expect("receiver alive");
        self.send_bytes.record(bytes);
        self.send_ns
            .record(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Receives the next message from `src`; its tag must match
    /// (messages between a pair are consumed in order, like MPI with a
    /// single tag in flight).
    pub fn recv(&self, src: usize, tag: u32) -> Vec<f64> {
        // A rank that panics below (tag mismatch) poisons this mutex while
        // its peers may still be draining their own recvs; recover the
        // guard instead of cascading the poison into a deadlocked
        // collective — the paired `recv` on the mpsc channel fails cleanly
        // once the panicked rank's senders drop.
        let t0 = std::time::Instant::now();
        let rx = self.shared.receivers[src * self.shared.size + self.rank]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let msg = rx.recv().expect("sender alive");
        self.recv_bytes.record((msg.data.len() * 8) as u64);
        self.recv_ns
            .record(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        assert_eq!(
            msg.tag, tag,
            "out-of-order tag between ranks {src}->{}",
            self.rank
        );
        telemetry::record_kernel(
            "comm.recv",
            telemetry::KernelCounts::once(1, (msg.data.len() * 8) as u64, 0, 0),
        );
        telemetry::emit(telemetry::EventKind::CommRecv {
            peer: src as u64,
            bytes: (msg.data.len() * 8) as u64,
        });
        msg.data
    }

    /// Barrier across all ranks.
    pub fn barrier(&self) {
        self.shared.barrier.wait();
    }

    /// Sum-allreduce: every rank passes equal-length slices; all receive
    /// the elementwise sum (deterministic rank order).
    pub(crate) fn allreduce_sum(&self, x: &[f64]) -> Vec<f64> {
        self.shared.collectives.fetch_add(1, Ordering::Relaxed);
        self.reduce(x, |acc, v| *acc += v)
    }

    fn reduce(&self, x: &[f64], combine: impl Fn(&mut f64, f64)) -> Vec<f64> {
        // Gather-to-root in rank order (deterministic FP reduction), then
        // broadcast — not performance-relevant in-process.
        let size = self.shared.size;
        if size == 1 {
            return x.to_vec();
        }
        // All ranks send to rank 0; rank 0 combines in rank order and
        // broadcasts back.
        const TAG: u32 = u32::MAX - 1;
        if self.rank == 0 {
            let mut acc = x.to_vec();
            for src in 1..size {
                let data = self.recv(src, TAG);
                assert_eq!(data.len(), acc.len());
                for (a, v) in acc.iter_mut().zip(data) {
                    combine(a, v);
                }
            }
            for dst in 1..size {
                self.send(dst, TAG, acc.clone());
            }
            acc
        } else {
            self.send(0, TAG, x.to_vec());
            self.recv(0, TAG)
        }
    }

    /// Total point-to-point messages sent so far (all ranks).
    pub fn stat_p2p_msgs(&self) -> u64 {
        self.shared.p2p_msgs.load(Ordering::Relaxed)
    }

    /// Total point-to-point bytes sent so far (all ranks).
    pub fn stat_p2p_bytes(&self) -> u64 {
        self.shared.p2p_bytes.load(Ordering::Relaxed)
    }

    /// Total collective operations so far (all ranks, counted once per
    /// participant).
    pub fn stat_collectives(&self) -> u64 {
        self.shared.collectives.load(Ordering::Relaxed)
    }
}

/// What `fun3d_solver` completes its inner products with when the
/// unknowns are spread over ranks.
impl fun3d_solver::SumReduce for Comm {
    fn sum(&self, partial: &mut [f64]) {
        let total = self.allreduce_sum(partial);
        partial.copy_from_slice(&total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_send_recv() {
        let out = Universe::run(4, |comm| {
            let next = (comm.rank() + 1) % 4;
            let prev = (comm.rank() + 3) % 4;
            comm.send(next, 7, vec![comm.rank() as f64]);
            let got = comm.recv(prev, 7);
            got[0]
        });
        assert_eq!(out, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn allreduce_sum_correct_and_deterministic() {
        let a = Universe::run(5, |comm| comm.allreduce_sum(&[comm.rank() as f64 + 0.5]));
        for v in &a {
            assert_eq!(v[0], 0.5 + 1.5 + 2.5 + 3.5 + 4.5);
        }
        let b = Universe::run(5, |comm| comm.allreduce_sum(&[comm.rank() as f64 + 0.5]));
        assert_eq!(a, b);
    }

    #[test]
    fn single_rank_allreduce() {
        let out = Universe::run(1, |comm| comm.allreduce_sum(&[42.0]));
        assert_eq!(out[0], vec![42.0]);
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        Universe::run(4, |comm| {
            counter.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn stats_accumulate() {
        let msgs = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![1.0, 2.0]);
            } else {
                comm.recv(0, 1);
            }
            comm.barrier();
            (comm.stat_p2p_msgs(), comm.stat_p2p_bytes())
        });
        assert_eq!(msgs[0].0, 1);
        assert_eq!(msgs[0].1, 16);
    }

    #[test]
    fn multiple_messages_fifo() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![1.0]);
                comm.send(1, 2, vec![2.0]);
                comm.send(1, 3, vec![3.0]);
            } else {
                assert_eq!(comm.recv(0, 1), vec![1.0]);
                assert_eq!(comm.recv(0, 2), vec![2.0]);
                assert_eq!(comm.recv(0, 3), vec![3.0]);
            }
        });
    }
}
