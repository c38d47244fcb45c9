"""Adaptive metaheuristic search for safety-critical rear-end test scenarios."""
