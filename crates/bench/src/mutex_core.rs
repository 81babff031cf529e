use crossbeam::channel;
use parking_lot::Mutex;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// The decision path split-runtime used before its flat-combining core:
/// every operation crosses a channel into a responder thread, which
/// takes the global state `Mutex`, applies the operation, and sends the
/// response back over a per-request channel — two blocking handoffs per
/// decision. `perfbench decision_core/contend*` measures
/// `split_runtime::CombiningCore` against it on identical handlers.
pub struct MutexCore<Op, Resp, S> {
    state: Arc<Mutex<S>>,
    submit_tx: Option<channel::Sender<(Op, Instant, channel::Sender<Resp>)>>,
    responder: Option<thread::JoinHandle<()>>,
}

impl<Op: Send + 'static, Resp: Send + 'static, S: Send + 'static> MutexCore<Op, Resp, S> {
    /// Build the responder-thread core around state and a handler.
    pub fn new(
        state: S,
        handler: impl Fn(&mut S, Op, Instant) -> Resp + Send + Sync + 'static,
    ) -> Self {
        let state = Arc::new(Mutex::new(state));
        let (submit_tx, submit_rx) = channel::unbounded::<(Op, Instant, channel::Sender<Resp>)>();
        let responder_state = Arc::clone(&state);
        let responder = thread::spawn(move || {
            for (op, publish, reply_tx) in submit_rx.iter() {
                let resp = {
                    let mut st = responder_state.lock();
                    handler(&mut st, op, publish)
                };
                // A racing shutdown may have dropped the receiver.
                let _ = reply_tx.send(resp);
            }
        });
        Self {
            state,
            submit_tx: Some(submit_tx),
            responder: Some(responder),
        }
    }

    /// Apply `op` through the responder thread, blocking until it sends
    /// the response back — the pre-combining decision path end to end.
    pub fn submit(&self, op: Op) -> Resp {
        let (reply_tx, reply_rx) = channel::unbounded();
        let sent = self.submit_tx.as_ref().expect("core not shut down").send((
            op,
            Instant::now(),
            reply_tx,
        ));
        assert!(sent.is_ok(), "responder thread alive");
        match reply_rx.recv() {
            Ok(resp) => resp,
            Err(_) => unreachable!("responder replies before exit"),
        }
    }

    /// Run `f` against the shared state directly (contending with the
    /// responder on the global lock, as observers used to).
    pub fn with_state<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.state.lock())
    }
}

impl<Op, Resp, S> Drop for MutexCore<Op, Resp, S> {
    fn drop(&mut self) {
        drop(self.submit_tx.take());
        if let Some(h) = self.responder.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_core_matches_semantics() {
        let core = Arc::new(MutexCore::new(0u64, |total: &mut u64, add, _| {
            *total += add;
            *total
        }));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let core = Arc::clone(&core);
                thread::spawn(move || {
                    for _ in 0..250 {
                        core.submit(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(core.with_state(|t| *t), 1000);
    }
}
