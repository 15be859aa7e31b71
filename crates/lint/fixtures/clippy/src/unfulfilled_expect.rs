//@ expect: unfulfilled_lint_expectations@6
//@ expect: unfulfilled_lint_expectations@13

// An expectation whose violation was fixed is itself an error.

#[expect(clippy::unwrap_used, reason = "this used to unwrap")]
pub fn no_longer_panics() -> u32 {
    7
}

pub fn trailing_stale() -> u64 {
    #[expect(
        clippy::disallowed_methods,
        reason = "no clock read here any more"
    )]
    let t = 8;
    t
}
