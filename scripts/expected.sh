#!/usr/bin/env bash
# Single source of truth for cross-script expectations, sourced by
# smoke.sh — registering a new experiment is a one-line change here
# instead of a scavenger hunt across scripts.

# Experiments the CLI must list, run and write reports for.
N_EXPERIMENTS=17
