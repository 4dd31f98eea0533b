package repro

import org.apache.spark.JobExecutionStatus
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  /** The Spark jobs `body` starts, counted by job group, and the tasks
    * their stages ran.
    */
  def sparkJobs(group: String)(body: => Any): SparkWork = {
    val sc = spark.sparkContext
    val st = sc.statusTracker
    sc.setJobGroup(group, group)
    try body finally sc.clearJobGroup()
    // Job and task events reach the status tracker asynchronously: wait
    // until the group's jobs are there and none is still running.
    def jobs = st.getJobIdsForGroup(group).toSeq.flatMap(st.getJobInfo)
    val deadline = System.nanoTime() + 10e9.toLong
    while ((jobs.isEmpty || jobs.exists(_.status == JobExecutionStatus.RUNNING)) &&
           System.nanoTime() < deadline)
      Thread.sleep(20)
    val stages = jobs.flatMap(_.stageIds).distinct.flatMap(st.getStageInfo)
    SparkWork(st.getJobIdsForGroup(group).length, stages.map(_.numCompletedTasks).sum)
  }

  /** The ids of the RDDs `body` left persisted. Only additions count: the
    * context cleaner may drop another suite's forgotten cache meanwhile.
    */
  def persistedBy(body: => Any): Set[Int] = {
    val sc     = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet.toSet
    body
    sc.getPersistentRDDs.keySet.toSet -- before
  }

  override def afterAll(): Unit = { super.afterAll() }
}

/** Spark work counted by `SparkSpec.sparkJobs`. */
final case class SparkWork(jobs: Int, tasks: Int)

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
