//! The two layer kinds of the chain [`crate::Sequential`] runs.

pub(crate) mod activation;
pub(crate) mod dense;
