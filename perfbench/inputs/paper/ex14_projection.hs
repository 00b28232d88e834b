% Example 14 of the paper: projecting an infinite relation is unsafe,
% and no computation touches only finite subsets of f.
.infinite f/1.
r(X) :- f(X).
?- r(X).
