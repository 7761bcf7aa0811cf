//! A scripted, in-memory [`WorkerLink`]: the worker loop run without threads or
//! sockets. It answers every exchange from a [`Script`] and records what it was asked
//! for, so a test reads the loop's protocol off the recorded sequence.

#![allow(dead_code)] // each test binary uses its own part

use dssp_net::wire::{SHUTDOWN_OK, SHUTDOWN_SERVER_ERROR};
use dssp_net::worker::{LinkEnd, WorkerLink};

/// One exchange the loop asked the link for.
#[derive(Debug, Clone, PartialEq)]
pub enum Exchange {
    Join,
    Pull {
        ask: bool,
        trace: u64,
    },
    Pulled,
    /// `grads` is a checksum of the gradient bits: equal batches on equal weights.
    /// `weights` is whether the loop handed the push its weight buffers.
    Push {
        iteration: u64,
        trace: u64,
        grads: u64,
        weights: bool,
    },
    AwaitOk {
        iteration: u64,
    },
    Done {
        iterations: u64,
    },
}

/// How the scripted server side behaves.
#[derive(Debug, Clone, Copy, Default)]
pub struct Script {
    /// The clock `join` admits the worker at.
    pub resume_from: u64,
    /// What every `OK` grants.
    pub granted_extra: u64,
    /// `OK`s still in flight after `done`, delivered before the shutdown broadcast.
    pub late_oks: u64,
    /// Answer the exchange with this index (0-based, over all recorded exchanges)
    /// with an error shutdown instead of its value.
    pub shutdown_at: Option<usize>,
}

pub const SHARDS: usize = 4;

pub struct ScriptedLink<'a> {
    script: Script,
    param_len: usize,
    pulls: u64,
    done: bool,
    calls: &'a mut Vec<Exchange>,
    /// Called at the top of every `push` (a test's measuring point inside the round).
    pub on_push: Option<&'a mut dyn FnMut()>,
}

impl<'a> ScriptedLink<'a> {
    pub fn new(script: Script, param_len: usize, calls: &'a mut Vec<Exchange>) -> Self {
        Self {
            script,
            param_len,
            pulls: 0,
            done: false,
            calls,
            on_push: None,
        }
    }

    /// Records the exchange and decides whether the script ends the run at it.
    fn asked(&mut self, exchange: Exchange) -> Result<(), LinkEnd> {
        self.calls.push(exchange);
        if self.script.shutdown_at == Some(self.calls.len() - 1) {
            return Err(LinkEnd::Shutdown(SHUTDOWN_SERVER_ERROR));
        }
        Ok(())
    }
}

impl WorkerLink for ScriptedLink<'_> {
    fn join(&mut self) -> Result<u64, LinkEnd> {
        self.asked(Exchange::Join)?;
        Ok(self.script.resume_from)
    }

    /// Ships all-zero weights — the gradients then depend on the batch alone — and
    /// versions that count the pulls. Only the first reply is a full model.
    fn pull(
        &mut self,
        ask: bool,
        trace: u64,
        weights: &mut Vec<f32>,
        versions: &mut Vec<u64>,
    ) -> Result<(bool, u64), LinkEnd> {
        self.asked(Exchange::Pull { ask, trace })?;
        self.pulls += 1;
        weights.resize(self.param_len, 0.0);
        versions.clear();
        versions.resize(SHARDS, self.pulls);
        Ok((self.pulls == 1, self.pulls))
    }

    fn pulled(&mut self) -> Result<(), LinkEnd> {
        self.asked(Exchange::Pulled)
    }

    fn push(
        &mut self,
        iteration: u64,
        trace: u64,
        grads: &[f32],
        weights: Option<(&mut Vec<f32>, &mut Vec<u64>)>,
    ) -> Result<(), LinkEnd> {
        if let Some(hook) = self.on_push.as_mut() {
            hook();
        }
        let grads = grads
            .iter()
            .fold(0u64, |h, g| h.rotate_left(5) ^ u64::from(g.to_bits()));
        self.asked(Exchange::Push {
            iteration,
            trace,
            grads,
            weights: weights.is_some(),
        })
    }

    fn await_ok(&mut self, iteration: u64) -> Result<u64, LinkEnd> {
        self.asked(Exchange::AwaitOk { iteration })?;
        if !self.done {
            return Ok(self.script.granted_extra);
        }
        // After `done`: the late `OK`s, then the shutdown broadcast.
        if self.script.late_oks > 0 {
            self.script.late_oks -= 1;
            return Ok(self.script.granted_extra);
        }
        Err(LinkEnd::Shutdown(SHUTDOWN_OK))
    }

    fn done(&mut self, iterations: u64, _epochs: u64, _waiting_time_s: f64) -> Result<(), LinkEnd> {
        self.done = true;
        self.asked(Exchange::Done { iterations })
    }
}
