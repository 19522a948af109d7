"""Scene-database question generation, verification, and scoring toolkit.

The pipeline turns driving-scene annotations into a four-table scene
information database, executes rule-based retrieval procedures against
sampled three-frame windows to emit instruction-response pairs, verifies
and splits the result, and scores model predictions with task-appropriate
metrics. A synthetic scene generator and a numeric attention reference
support oracle-style testing end to end.
"""
